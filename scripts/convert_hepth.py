#!/usr/bin/env python3
"""Best-effort converter from the public KDD Cup 2003 hep-th files to a
metaprop record file.

This is tooling, not a correctness-bearing component: the experiments in the
literature used a privately consolidated derivative (including a 40-keyword
vocabulary) that was never published, so this converter only recovers what
the public files carry:

  auth  - from the "Authors:" line of each abstract file (lightly split)
  date  - publication year/month from the "Date:" line
  jour  - first alphanumeric chunk of the "Journal-ref:" line
  org   - email domain of the submitter, as an institution surrogate
  cite  - from the hep-th-citations edge list ("src dst" per line)

Keywords are NOT recoverable from the public files.  No consolidation or
hand-cleaning is applied, so downstream edge counts will differ from any
results produced from the private derivative.

The records are built and written with ``metaprop.records``, so metaprop
must be importable (installed, or ``src`` on PYTHONPATH).

Usage:
    python scripts/convert_hepth.py --abstracts hep-th-abs/ \\
        --citations hep-th-citations --output hepth-records.jsonl
"""

import argparse
import os
import re
import sys
from collections import defaultdict

from metaprop.records import Repository, make_record, save_repository

MONTHS = {m: i + 1 for i, m in enumerate(
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
)}


def parse_abstract(text):
    """Pull id/auth/date/jour/org out of one arXiv abstract file."""
    fields = {}
    m = re.search(r"^Paper:\s*(?:hep-th/)?(\S+)", text, re.MULTILINE)
    if not m:
        return None
    fields["id"] = m.group(1)
    props = defaultdict(set)

    m = re.search(r"^From:.*?@([\w.\-]+)", text, re.MULTILINE)
    if m:
        props["org"].add(m.group(1).lower())

    m = re.search(r"^Date:\s*(.+)$", text, re.MULTILINE)
    if m:
        ym = re.search(r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\w*\s+(\d{4})", m.group(1))
        year = re.search(r"(19|20)\d{2}", m.group(1))
        if year:
            month = ym.group(1) if ym else None
            token = year.group(0) + (f"-{MONTHS[month]:02d}" if month else "")
            props["date"].add(token)

    m = re.search(r"^Authors?:\s*(.+)$", text, re.MULTILINE)
    if m:
        raw = re.sub(r"\(.*?\)", "", m.group(1))
        for name in re.split(r",| and ", raw):
            name = " ".join(name.split())
            if name:
                props["auth"].add(name)

    m = re.search(r"^Journal-ref:\s*(.+)$", text, re.MULTILINE)
    if m:
        jour = re.split(r"\d", m.group(1), maxsplit=1)[0].strip().rstrip(".,")
        jour = " ".join(jour.split())
        if jour:
            props["jour"].add(jour)

    fields["properties"] = props
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--abstracts", required=True,
                        help="directory tree of arXiv abstract files (*.abs)")
    parser.add_argument("--citations", required=True,
                        help="edge list file, one 'src dst' pair per line")
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    records = {}
    for root, _, files in os.walk(args.abstracts):
        for name in sorted(files):
            if not name.endswith(".abs"):
                continue
            with open(os.path.join(root, name), encoding="utf-8", errors="replace") as fh:
                parsed = parse_abstract(fh.read())
            if parsed:
                records[parsed["id"]] = parsed["properties"]
    if not records:
        print("error: no abstract files parsed", file=sys.stderr)
        return 1

    n_cites = 0
    with open(args.citations, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 2:
                continue
            src, dst = parts
            if src in records:
                records[src]["cite"].add(dst)
                n_cites += 1

    save_repository(Repository(make_record(rid, props) for rid, props in records.items()), args.output)
    print(f"{len(records)} records, {n_cites} citation links -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
