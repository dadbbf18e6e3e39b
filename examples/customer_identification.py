"""Identify potential customers in a Google+-like graph with a rule set Σ (EIP).

Builds a workload of GPARs sampled from the graph (as the Exp-3 benchmarks
do), runs the three identification algorithms — Match, Matchc and disVF2 —
and shows that they agree on the identified entities while doing very
different amounts of work.
"""

from repro.datasets import generate_gpars, googleplus_like, most_frequent_predicates
from repro.identification import identify_entities
from repro.testing import identify_sequential


def main() -> None:
    graph = googleplus_like(num_users=200, num_circles=8, seed=11)
    print(f"Identifying customers on {graph!r}")

    predicates = most_frequent_predicates(graph, top=6)
    target = next(
        (p for p in predicates if p.edges()[0].label == "major"), predicates[0]
    )
    edge = target.edges()[0]
    print(
        f"predicate q(x, y): {target.label(target.x)} --{edge.label}--> "
        f"{target.label(target.y)}"
    )

    rules = generate_gpars(graph, target, count=8, max_pattern_edges=4, d=2, seed=5)
    print(f"workload Σ: {len(rules)} rules, radii {[rule.radius for rule in rules]}")

    reference = identify_sequential(graph, rules, eta=1.0)
    print(f"\nsequential reference identified {len(reference.identified)} entities")

    for algorithm in ("match", "matchc", "disvf2"):
        result = identify_entities(
            graph, rules, eta=1.0, num_workers=4, algorithm=algorithm
        )
        agrees = result.identified == reference.identified
        print(
            f"{algorithm:>7}: {len(result.identified)} entities, "
            f"{result.candidates_examined} candidate checks, "
            f"simulated parallel time {result.timings.simulated_parallel_time:.3f}s, "
            f"agrees with reference: {agrees}"
        )

    best = identify_entities(graph, rules, eta=1.0, num_workers=4, algorithm="match")
    print("\n" + best.summary())


if __name__ == "__main__":
    main()
