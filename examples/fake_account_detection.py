"""Fake-account detection on the paper's G2 (Example 1(4) and rule R4).

Rule R4 flags an account x as a likely fake when a confirmed-fake account x'
shares k liked blogs with x and both have posted blogs containing the same
scam keyword.  This script evaluates R4 on G2 and then applies it through the
EIP interface to produce the suspect list.
"""

from repro.datasets import graph_g2, rule_r4
from repro.identification import identify_entities
from repro.metrics import evaluate_rule
from repro.testing import identify_sequential


def main() -> None:
    graph = graph_g2()
    print(f"Loaded {graph!r}")

    for k in (1, 2):
        rule = rule_r4(k=k)
        evaluation = evaluate_rule(graph, rule)
        print(f"\nR4 with k = {k} shared liked blogs:")
        print(f"  suspects Q4(x, G2): {sorted(evaluation.antecedent_matches)}")
        print(f"  supp(R4, G2) = {evaluation.supp_r}")

    rule = rule_r4(k=2)
    print("\nApplying R4 through the EIP interface (η = 0.1):")
    sequential = identify_sequential(graph, [rule], eta=0.1)
    parallel = identify_entities(graph, [rule], eta=0.1, num_workers=2, algorithm="match")
    print("  sequential suspects:", sorted(sequential.identified))
    print("  parallel suspects:  ", sorted(parallel.identified))
    print(parallel.summary())


if __name__ == "__main__":
    main()
