from __future__ import annotations

import pytest

from pigfill import (
    ClassMembershipError,
    GraphInputError,
    apply_fill,
    brute_min_pig,
    build_graph,
    enumerate_threshold,
    is_proper_interval,
    threshold_pig_completion,
    threshold_run,
    validate_completion,
)
from pigfill.xcheck import maxcut_identity_check, partition_cost


class TestCompletionExamples:
    def test_p3_free(self):
        p3 = build_graph(3, [(0, 2), (1, 2)])
        res = threshold_pig_completion(p3)
        assert res.cost == 0 and res.fill == ()

    def test_claw(self, claw):
        res = threshold_pig_completion(claw)
        assert res.cost == 1
        assert res.fill == ((1, 2),)
        # first-added leaf shares a side with the center
        assert res.certificate.s1 == (0, 3) and res.certificate.s2 == (1, 2)
        assert res.cost == brute_min_pig(claw)[0]

    def test_star5(self, star5):
        res = threshold_pig_completion(star5)
        assert res.cost == 2
        assert res.certificate.s1 == (0, 3, 4)  # two leaves join the center
        assert res.certificate.s2 == (1, 2)
        assert res.cost == brute_min_pig(star5)[0]

    def test_completion_is_proper_interval(self, claw, star5):
        for g in (claw, star5):
            res = threshold_pig_completion(g)
            assert is_proper_interval(apply_fill(g, res.fill)).is_pig
            validate_completion(g, res)

    def test_cost_only(self, star5):
        res = threshold_pig_completion(star5, cost_only=True)
        assert res.fill is None and res.cost == 2
        assert res.certificate.s1 == (0, 3, 4)

    def test_non_threshold_rejected(self, p4):
        with pytest.raises(ClassMembershipError) as err:
            threshold_pig_completion(p4)
        assert err.value.witness[0] == "P4"


class TestRunTrace:
    def test_claw_trace(self, claw):
        run = threshold_run(claw)
        assert run.sequence.tags() == "iiid"
        assert run.side == (1, 2, 2, 1)
        assert run.cost == 1
        assert run.step_count == 4

    def test_dominating_always_side1_and_final_balance(self):
        for n in range(1, 8):
            for g, _ in enumerate_threshold(n):
                run = threshold_run(g)
                for (v, tag), side in zip(run.sequence.steps, run.side):
                    if tag == "d":
                        assert side == 1
                assert run.side.count(1) >= run.side.count(2)

    def test_incremental_cost_equals_fill(self):
        for n in range(1, 7):
            for g, _ in enumerate_threshold(n):
                res = threshold_pig_completion(g)
                assert res.cost == len(res.fill)


class TestDisconnectedInputs:
    def test_claw_plus_isolated(self):
        g = build_graph(5, [(1, 2), (1, 3), (1, 4)])
        res = threshold_pig_completion(g)
        assert res.cost == 1
        parts = set(res.certificate.s1) | set(res.certificate.s2)
        assert 0 not in parts  # the isolated vertex is untouched
        validate_completion(g, res)
        assert res.cost == brute_min_pig(g)[0]

    def test_edgeless_graph(self):
        g = build_graph(4, [])
        res = threshold_pig_completion(g)
        assert res.cost == 0 and res.fill == ()
        assert res.certificate.s1 == () and res.certificate.s2 == ()


class TestPartitionCost:
    def test_claw(self, claw):
        assert partition_cost(claw, ((0, 1), (2, 3))) == 1

    def test_k4_any_split(self, k4):
        assert partition_cost(k4, ((0, 2), (1, 3))) == 0

    def test_star5(self, star5):
        assert partition_cost(star5, ((0, 1, 2), (3, 4))) == 2

    def test_rejects_non_partition(self, claw):
        with pytest.raises(GraphInputError):
            partition_cost(claw, ((0, 1), (1, 2, 3)))
        with pytest.raises(GraphInputError):
            partition_cost(claw, ((0,), (2, 3)))


class TestMaxcutIdentity:
    def test_claw(self, claw):
        rep = maxcut_identity_check(claw)
        assert (rep.min_fill, rep.max_cut_complement, rep.pairs, rep.edges) == (1, 2, 6, 3)
        assert rep.identity_holds

    def test_k4(self, k4):
        rep = maxcut_identity_check(k4)
        assert rep.min_fill == 0 and rep.max_cut_complement == 0
        assert rep.identity_holds

    def test_star5(self, star5):
        rep = maxcut_identity_check(star5)
        assert rep.min_fill == 2 and rep.max_cut_complement == 4
        assert rep.identity_holds

    def test_disconnected_uses_nontrivial_component(self):
        g = build_graph(5, [(1, 2), (1, 3), (1, 4)])
        rep = maxcut_identity_check(g)
        assert rep.component_size == 4
        assert rep.identity_holds
