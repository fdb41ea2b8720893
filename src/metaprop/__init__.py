"""metaprop: associative-network construction, particle-based metadata
propagation, and an atrophy/recover evaluation harness.

Importing the package loads none of its modules; import the one you use
(``metaprop.records``, ``metaprop.netbuild``, ``metaprop.swarm``,
``metaprop.evalharness``, ``metaprop.synthetic``, ``metaprop.cli``).
``import metaprop.records`` does not load numpy or scipy; the network
modules pay that import when first used.
"""
