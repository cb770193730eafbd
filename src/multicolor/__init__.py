"""Online graph multi-coloring with advice: paths, bipartite and hexagonal
graphs, offline oracles, advice tapes, and adversarial instance families.

The package itself exports nothing; import each name from its module, as in
`from multicolor.harness import run`, so that a module loads only what it uses."""
