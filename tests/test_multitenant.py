"""Multi-tenant Σ serving: shared pool, warm admission, projections, sessions.

Covers the cross-rule-set sharing layer end to end: canonical-key
deduplication in :class:`~repro.matching.SharedPatternPool`, dynamic
Σ admission/retirement on a live :class:`~repro.stream.StreamingIdentifier`,
and the one shared core, :class:`repro.api.SharedSessionCore`: its
per-tenant projections (gated byte-identical to independent runs by
:func:`repro.testing.multi_tenant_check`), its session fan-out, its
checkpoint and its one lock.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import IdentificationError, ReproError, StreamError
from repro.identification.eip import EIPConfig, identify_entities
from repro.matching import SharedPatternPool, rule_key
from repro.parallel.executor import BACKENDS
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream import StreamingIdentifier, random_update_batch
from repro.stream.identifier import read_checkpoint, write_checkpoint
from repro.testing import eip_fingerprint, multi_tenant_check


def _workload(seed=3, count=8):
    graph = synthetic_graph(60, 200, num_node_labels=4, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(
        graph, predicate, count=count, max_pattern_edges=3, d=2, seed=seed
    )
    return graph, rules


def _renamed(rule, name):
    """A structurally different, canonically equal copy of *rule*."""
    pattern = rule.antecedent
    fresh = {
        node: node if node in (pattern.x, pattern.y) else f"{node}-twin"
        for node in pattern.nodes()
    }
    antecedent = Pattern(
        nodes={fresh[node]: label for node, label in pattern.node_items()},
        edges=[
            (fresh[edge.source], fresh[edge.target], edge.label)
            for edge in pattern.edges()
        ],
        x=pattern.x,
        y=pattern.y,
        copies={fresh[node]: count for node, count in pattern.copy_counts().items()},
    )
    return GPAR(antecedent, consequent_label=rule.consequent_label, name=name, validate=False)


def _counters(report):
    """A StreamUpdateReport minus its wall clock (and the delta's identity)."""
    from dataclasses import asdict

    fields = asdict(report)
    del fields["wall_time"]
    return fields


def _config(**overrides):
    defaults = dict(eta=0.1, num_workers=2, seed=3)
    defaults.update(overrides)
    return EIPConfig(**defaults)


class TestSharedPatternPool:
    def test_overlapping_slices_share_canonical_keys(self):
        _graph, rules = _workload()
        pool = SharedPatternPool()
        first = pool.register("t1", tuple(rules[:5]))
        assert len(first.novel) == 5 and not first.shared
        second = pool.register("t2", tuple(rules[2:7]))
        # rules 2..4 are already resident under t1's keys
        assert set(second.shared) == set(rules[2:5])
        assert set(second.novel) == set(rules[5:7])
        assert second.shared_prefix_hits > 0
        for rule in rules[2:5]:
            assert pool.representatives()[rule_key(rule)] in rules

    def test_release_returns_last_owner_representatives(self):
        _graph, rules = _workload()
        pool = SharedPatternPool()
        pool.register("t1", tuple(rules[:5]))
        pool.register("t2", tuple(rules[2:7]))
        retired = pool.release("t1")
        # rules 0..1 lost their only owner; 2..4 survive under t2
        assert set(retired) == set(rules[:2])
        retired = pool.release("t2")
        assert set(retired) == set(rules[2:7])
        assert len(pool) == 0

    def test_duplicate_tenant_and_empty_sigma_are_rejected(self):
        _graph, rules = _workload()
        pool = SharedPatternPool()
        pool.register("t1", tuple(rules[:2]))
        with pytest.raises(ReproError):
            pool.register("t1", tuple(rules[:2]))
        with pytest.raises(ReproError):
            pool.register("t2", ())


class TestStreamingAdmission:
    def test_admit_then_tick_then_retire_stay_exact(self):
        graph, rules = _workload()
        initial, additions = tuple(rules[:3]), tuple(rules[3:6])
        config = _config()
        with StreamingIdentifier(graph, list(initial), config=config) as identifier:
            report = identifier.admit_rules(additions)
            assert set(report.admitted) == set(additions)
            union = initial + additions

            def fresh(sigma):
                return identify_entities(
                    graph.copy(), list(sigma), eta=config.eta,
                    num_workers=config.num_workers, seed=config.seed,
                )

            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh(union))
            identifier.apply(random_update_batch(graph, size=6, seed=11))
            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh(union))
            retired = identifier.retire_rules(additions)
            assert set(retired) == set(additions)
            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh(initial))

    def test_admitting_a_wider_rule_is_rejected(self):
        graph, rules = _workload()
        predicate = most_frequent_predicates(graph, top=1)[0]
        x_label = predicate.label(predicate.x)
        edge_label = predicate.edges()[0].label
        narrow = GPAR(
            Pattern(
                nodes={"x": x_label, "y": predicate.label(predicate.y), "v1": x_label},
                edges=[("x", "v1", edge_label), ("x", "y", edge_label)],
                x="x",
                y="y",
            ),
            consequent_label=edge_label,
            validate=False,
        )
        wide = GPAR(
            Pattern(
                nodes={
                    "x": x_label,
                    "y": predicate.label(predicate.y),
                    "v1": x_label,
                    "v2": x_label,
                    "v3": x_label,
                },
                edges=[
                    ("x", "v1", edge_label),
                    ("v1", "v2", edge_label),
                    ("v2", "v3", edge_label),
                    ("x", "y", edge_label),
                ],
                x="x",
                y="y",
            ),
            consequent_label=edge_label,
            validate=False,
        )
        with StreamingIdentifier(graph, [narrow], config=_config()) as identifier:
            with pytest.raises(StreamError, match="radius_floor"):
                identifier.admit_rules([wide])
            # radius_floor headroom makes the same admission legal
        with StreamingIdentifier(
            graph, [narrow], config=_config(), radius_floor=3
        ) as identifier:
            identifier.admit_rules([wide])
            assert wide in identifier.rules

    def test_retiring_the_whole_sigma_is_rejected(self):
        graph, rules = _workload()
        with StreamingIdentifier(graph, list(rules[:2]), config=_config()) as identifier:
            with pytest.raises(StreamError):
                identifier.retire_rules(rules[:2])


class TestMultiTenantIdentifier:
    def test_warm_admission_pays_only_the_novel_suffix(self):
        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            first = core.admit("t1", tuple(rules[:5])).admission
            assert first.cold_start and first.novel_rules == 5
            assert first.backfill_centers > 0
            second = core.admit("t2", tuple(rules[2:7])).admission
            assert not second.cold_start
            assert second.shared_rules == 3 and second.novel_rules == 2
            third = core.admit("t3", tuple(rules[2:5])).admission  # fully resident
            assert third.novel_rules == 0 and third.backfill_centers == 0
            assert len(core.identifier.rules) == 7

    def test_projections_match_independent_runs_under_churn(self):
        graph, rules = _workload()
        tenants = {"t1": rules[:5], "t2": rules[2:7], "t3": rules[4:8]}
        batches = [
            random_update_batch(graph.copy(), size=6, seed=100 + i) for i in range(2)
        ]
        divergences = multi_tenant_check(
            graph,
            tenants,
            batches,
            eta=0.1,
            num_workers=2,
            seed=3,
            backends=("sequential", "processes"),
        )
        assert divergences == []

    def test_evict_keeps_remaining_tenants_exact(self):
        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            first = core.admit("t1", tuple(rules[:5]))
            second = core.admit("t2", tuple(rules[2:7]))
            core.apply(random_update_batch(core.graph, size=6, seed=7))
            first.close()
            assert tuple(core.sessions) == ("t2",)
            assert eip_fingerprint(core.result_for("t2")) == eip_fingerprint(
                second.recompute()
            )
            with pytest.raises(StreamError):
                core.result_for("t1")

    def test_lifecycle_guards(self):
        graph, rules = _workload()
        core = api.open_shared_core(graph.copy(), config=_config())
        with pytest.raises(StreamError):
            core.apply(random_update_batch(graph.copy(), size=4, seed=1))
        first = core.admit("t1", tuple(rules[:3]))
        with pytest.raises(ReproError):
            core.admit("t1", tuple(rules[:3]))  # duplicate tenant
        first.close()
        assert core._identifier is None  # last eviction closes the engine
        core.close()
        with pytest.raises(StreamError):
            core.admit("t2", tuple(rules[:3]))


class TestSharedSessionCore:
    def test_tick_fans_out_and_close_one_keeps_one(self):
        graph, rules = _workload()
        config = _config()
        with api.open_shared_core(graph.copy(), config=config) as core:
            alpha = core.open_session("alpha", rules[:5])
            beta = core.open_session("beta", rules[2:7])
            assert alpha.admission.cold_start
            assert not beta.admission.cold_start and beta.admission.shared_rules == 3
            baseline = beta.graph_version
            batch = random_update_batch(core.graph, size=6, seed=5)
            _report, delta = alpha.apply(batch)
            assert delta.version == alpha.graph_version
            # the sibling advanced in the same tick and got its own delta
            assert beta.graph_version == alpha.graph_version
            assert [d.version for d in beta.deltas(baseline)] == [beta.graph_version]
            for session in (alpha, beta):
                assert eip_fingerprint(session.result) == eip_fingerprint(
                    session.recompute()
                )
            alpha.close()
            assert tuple(core.sessions) == ("beta",)
            assert eip_fingerprint(beta.result) == eip_fingerprint(beta.recompute())

    @pytest.mark.parametrize("backend", [*BACKENDS, "threads"])
    def test_core_checkpoint_round_trip(self, tmp_path, backend):
        """save_state → restore_core keeps every tenant's answer, including a
        representative that outlived the tenant which introduced it.

        The ``threads`` leg saves the checkpoint the retired thread backend
        would have written: a plain restore refuses it by name, and one that
        names ``sequential`` round-trips it like any other."""
        graph, rules = _workload()
        retired = backend not in BACKENDS
        resume_on = "sequential" if retired else None
        config = _config(backend=resume_on or backend)
        sigma = {
            "alpha": tuple(rules[:5]),
            "beta": tuple(_renamed(rule, rule.name) for rule in rules[2:5])
            + tuple(rules[5:7]),
        }
        with api.open_shared_core(graph.copy(), config=config) as core:
            alpha = core.open_session("alpha", sigma["alpha"])
            core.open_session("beta", sigma["beta"])
            core.apply(random_update_batch(core.graph, size=6, seed=5))
            # beta reads rules 2..4 through alpha's rule objects (its own are
            # renamed twins); they stay the representatives after alpha is
            # evicted, and the stored verdicts are keyed by them — a restore
            # that re-derived representatives from the surviving tenants
            # would read empty match sets.
            alpha.close()
            assert set(rules[2:5]) <= set(core.identifier.rules)
            core.open_session("alpha", sigma["alpha"])
            core.apply(random_update_batch(core.graph, size=6, seed=6))
            saved = {
                tenant: eip_fingerprint(session.result)
                for tenant, session in core.sessions.items()
            }
            path = core.save_state(tmp_path / "core.pkl")
        assert saved["alpha"] != saved["beta"]
        if retired:
            state = read_checkpoint(path)
            object.__setattr__(state["config"], "backend", backend)  # as pickled then
            write_checkpoint(path, state)
            with pytest.raises(IdentificationError, match=f"'{backend}'"):
                api.restore_core(path)
        with api.restore_core(path, backend=resume_on) as restored:
            assert tuple(restored.sessions) == ("beta", "alpha")  # admission order
            assert restored.config.backend == (resume_on or backend)
            for tenant, session in restored.sessions.items():
                assert session.rules == sigma[tenant]
                assert eip_fingerprint(session.result) == saved[tenant]
                assert eip_fingerprint(session.recompute()) == saved[tenant]
            restored.apply(random_update_batch(restored.graph, size=6, seed=7))
            for session in restored.sessions.values():
                assert eip_fingerprint(session.result) == eip_fingerprint(
                    session.recompute()
                )
        # the same file resumes the bare union core
        with StreamingIdentifier.restore(path, backend=resume_on) as union:
            assert eip_fingerprint(union.result) == eip_fingerprint(union.recompute())

    def test_bare_identifier_checkpoint_is_not_a_core(self, tmp_path):
        graph, rules = _workload()
        with StreamingIdentifier(graph.copy(), rules[:3], config=_config()) as bare:
            path = bare.save_state(tmp_path / "bare.pkl")
        with pytest.raises(StreamError, match="bare StreamingIdentifier"):
            api.restore_core(path)

    def test_solo_session_is_the_one_tenant_case(self):
        """api.open_session == a bare StreamingIdentifier over the same
        batches: answers, deltas and report counters (Σ carries two
        canonically equal antecedents, which the pool dedupes)."""
        graph, rules = _workload()
        sigma = list(rules[:4]) + [_renamed(rules[0], "twin")]
        assert rule_key(sigma[-1]) == rule_key(sigma[0]) and sigma[-1] != sigma[0]
        config = _config()
        with StreamingIdentifier(
            graph.copy(), sigma, config=config
        ) as bare, api.open_session(graph.copy(), sigma, config=config) as session:
            assert session.rules == tuple(sigma)
            assert len(session.core.identifier.rules) == 4
            assert session.admission.cold_start and session.admission.novel_rules == 4
            assert eip_fingerprint(session.result) == eip_fingerprint(bare.result)
            for seed in range(4):
                batch = random_update_batch(bare.graph, size=6, seed=20 + seed)
                before = bare.result
                base_version = bare.graph.version
                bare_report = bare.apply(batch)
                report, delta = session.apply(batch)
                assert eip_fingerprint(session.result) == eip_fingerprint(bare.result)
                expected = api.diff_results(
                    before, bare.result, base_version, bare.graph.version
                )
                assert delta.as_dict() == expected.as_dict()
                # The core verifies the twin's patterns once, the bare
                # identifier once per rule; every other counter is equal.
                assert report.verifications <= bare_report.verifications
                report.verifications = bare_report.verifications
                assert _counters(report) == _counters(bare_report)

    def test_one_assemble_per_member_none_for_the_union(self, monkeypatch):
        import repro.stream.identifier
        from repro.identification.eip import assemble

        assembled = []

        def counting(rules, reports, eta):
            assembled.append(tuple(rule.name for rule in rules))
            return assemble(rules, reports, eta)

        for module in (api, repro.stream.identifier):
            monkeypatch.setattr(module, "assemble", counting)
        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            alpha = core.open_session("alpha", rules[:5])
            beta = core.open_session("beta", rules[2:7])
            assembled.clear()
            core.apply(random_update_batch(core.graph, size=6, seed=5))
            assert sorted(assembled) == sorted(
                tuple(rule.name for rule in session.rules) for session in (alpha, beta)
            )
        with api.open_session(graph.copy(), rules[:5], config=_config()) as solo:
            assembled.clear()
            solo.apply(random_update_batch(solo.core.graph, size=6, seed=5))
            assert len(assembled) == 1

    @pytest.mark.parametrize("tenants", [1, 2])
    def test_closed_session_cannot_write(self, tenants):
        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            sessions = [
                core.open_session(f"t{index}", rules[index : index + 4])
                for index in range(tenants)
            ]
            closed, siblings = sessions[0], sessions[1:]
            closed.close()
            version = core.graph.version
            batch = random_update_batch(core.graph, size=4, seed=9)
            with pytest.raises(StreamError, match="closed"):
                closed.apply(batch)
            assert core.graph.version == version  # the graph was not ticked
            for sibling in siblings:
                assert sibling.graph_version == version
                sibling.apply(batch)  # still valid: nothing was applied

    def test_refused_admission_leaves_no_ghost_tenant(self):
        """A refused ``open_session`` admits nothing: the tenant table is as
        before, no tick verifies the refused Σ, and the name stays free."""
        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            member = core.open_session("alpha", rules[:4])
            tenants = tuple(core.sessions)
            with pytest.raises(StreamError, match="history_limit"):
                core.open_session("ghost", rules[4:], history_limit=0)
            assert tuple(core.sessions) == tenants
            assert core.open_session("ghost", rules[4:]).tenant == "ghost"
            assert member.tenant in core.sessions

    def test_refused_solo_session_closes_its_private_core(self, monkeypatch):
        graph, rules = _workload()
        closed = []
        close = api.SharedSessionCore.close
        monkeypatch.setattr(api.SharedSessionCore, "close", lambda core: closed.append(core) or close(core))
        with pytest.raises(StreamError, match="history_limit"):
            api.open_session(graph.copy(), rules[:4], config=_config(), history_limit=0)
        assert len(closed) == 1

    def test_reads_do_not_wait_for_the_tick(self):
        """rules / result / answer return while apply holds the core's lock."""
        import threading

        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            alpha = core.open_session("alpha", rules[:5])
            beta = core.open_session("beta", rules[2:7])
            identifier = core.identifier
            in_tick, release = threading.Event(), threading.Event()
            real_apply = identifier.apply

            def slow_apply(batch):
                in_tick.set()
                release.wait(timeout=30)
                return real_apply(batch)

            identifier.apply = slow_apply
            batch = random_update_batch(core.graph, size=4, seed=9)
            writer = threading.Thread(target=alpha.apply, args=(batch,))
            seen = []

            def read():
                for session in (alpha, beta):
                    seen.append((session.rules, session.result, session.answer(limit=1)))

            reader = threading.Thread(target=read, daemon=True)
            try:
                writer.start()
                assert in_tick.wait(timeout=10)
                reader.start()
                reader.join(timeout=5)
                stalled = reader.is_alive()
            finally:
                release.set()
                writer.join(timeout=30)
            assert not stalled and len(seen) == 2
            assert alpha.graph_version == beta.graph_version == core.graph.version

    def test_open_racing_close_is_refused(self):
        """An admission that lands while ``close`` is mid-way waits for it and
        is refused: no caller is left holding a session on a closed core."""
        import threading

        graph, rules = _workload()
        core = api.open_shared_core(graph.copy(), config=_config())
        core.open_session("alpha", rules[:4])
        identifier = core.identifier
        closing, release = threading.Event(), threading.Event()
        real_close = identifier.close

        def held_close():
            closing.set()
            release.wait(timeout=30)
            real_close()

        identifier.close = held_close
        closer = threading.Thread(target=core.close)
        outcome = []

        def admit():
            try:
                outcome.append(core.open_session("late", rules[4:]))
            except StreamError as error:
                outcome.append(error)

        opener = threading.Thread(target=admit)
        try:
            closer.start()
            assert closing.wait(timeout=10)
            opener.start()
            opener.join(timeout=0.5)
        finally:
            release.set()
            closer.join(timeout=30)
            opener.join(timeout=30)
        assert len(outcome) == 1 and isinstance(outcome[0], StreamError), outcome
        assert core.sessions == {}
