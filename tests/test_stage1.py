"""Few-shot context construction and consensus screening."""

import json

import pytest

from vismine import bm25, corpus, stage1
from vismine import gateway as gateway_mod
from vismine.errors import AuthenticationError, StageError, TransientBackendError
from vismine.gateway import Gateway, KeywordStubBackend, StubBackend, StubRules
from tests.conftest import ITEM_FAILURES, RaisingBackend


def paper(paper_id, title, label=None, abstract=""):
    return corpus.PaperRecord(paper_id=paper_id, title=title, abstract=abstract, label=label)


def tiered_pool(tiers):
    """Pool whose ranking for the query ["saliency"] follows the tf tiers.

    Every doc has 8 tokens, so a higher "saliency" count strictly wins.
    """
    records = []
    assignments = []
    filler = 0
    for paper_id, label, tf in tiers:
        fillers = []
        for _ in range(8 - tf):
            fillers.append(f"filler{filler:03d}")
            filler += 1
        title = " ".join(["saliency"] * tf + fillers)
        records.append(paper(paper_id, title))
        assignments.append((paper_id, label))
    return corpus.load_labeled_pool(records, assignments)


TARGET = paper("target", "saliency saliency saliency probe")


def target_ranking(pool):
    return bm25.rank_all(stage1.pool_index(pool), stage1.paper_query_tokens(TARGET))


def dual_stub_gateway(**kwargs):
    rules_a = StubRules(screen_keywords=("saliency",))
    rules_b = StubRules(screen_keywords=("model",))
    return Gateway(
        {
            "primary": KeywordStubBackend("primary", rules_a),
            "secondary": KeywordStubBackend("secondary", rules_b),
        },
        **kwargs,
    )


class TestBuildFewshotContext:
    def test_constraints_already_met(self):
        pool = tiered_pool(
            [
                ("pos1", "positive", 7), ("pos2", "positive", 6),
                ("pos3", "positive", 5), ("pos4", "positive", 4),
                ("neg1", "negative", 3), ("neg2", "negative", 2),
                ("pos5", "positive", 1), ("pos6", "positive", 0),
                ("neg3", "negative", 0),
            ]
        )
        context = stage1.build_fewshot_context(TARGET, pool, target_ranking(pool), k=6)
        assert context.exemplar_ids == ("pos1", "pos2", "pos3", "pos4", "neg1", "neg2")
        labels = [label for _, label in context.exemplars]
        assert labels.count("positive") == 4
        assert labels.count("negative") == 2

    def test_all_positive_top_k_rebalanced(self):
        # Scores are known by construction: pos1..pos7 rank strictly by tf,
        # negatives all score zero and rank by id. The two lowest-ranked
        # positives in the window give way to the two best negatives.
        pool = tiered_pool(
            [
                ("pos1", "positive", 7), ("pos2", "positive", 6),
                ("pos3", "positive", 5), ("pos4", "positive", 4),
                ("pos5", "positive", 3), ("pos6", "positive", 2),
                ("pos7", "positive", 1),
                ("neg1", "negative", 0), ("neg2", "negative", 0),
                ("neg3", "negative", 0),
            ]
        )
        context = stage1.build_fewshot_context(TARGET, pool, target_ranking(pool), k=6)
        assert context.exemplar_ids == ("pos1", "pos2", "pos3", "pos4", "neg1", "neg2")
        assert [label for _, label in context.exemplars].count("negative") == 2

    def test_target_in_pool_never_leaks(self):
        pool = tiered_pool(
            [
                ("target", "positive", 8),  # same id as the target paper
                ("pos2", "positive", 6), ("pos3", "positive", 5),
                ("neg1", "negative", 3), ("neg2", "negative", 2),
                ("pos4", "positive", 4), ("neg3", "negative", 1),
            ]
        )
        context = stage1.build_fewshot_context(TARGET, pool, target_ranking(pool), k=6)
        assert "target" not in context.exemplar_ids

    def test_pool_too_small(self):
        pool = tiered_pool([("pos1", "positive", 3), ("neg1", "negative", 2)])
        with pytest.raises(StageError):
            stage1.build_fewshot_context(TARGET, pool, target_ranking(pool), k=6,
                                         min_pos=2, min_neg=2)

    def test_k_smaller_than_minimums(self):
        pool = tiered_pool(
            [("pos1", "positive", 3), ("pos2", "positive", 2),
             ("neg1", "negative", 1), ("neg2", "negative", 0)]
        )
        with pytest.raises(StageError):
            stage1.build_fewshot_context(TARGET, pool, target_ranking(pool), k=3,
                                         min_pos=2, min_neg=2)


class TestScreenPaper:
    def pool(self):
        return tiered_pool(
            [("pos1", "positive", 4), ("pos2", "positive", 3),
             ("neg1", "negative", 2), ("neg2", "negative", 1)]
        )

    def context(self):
        pool = self.pool()
        return stage1.build_fewshot_context(TARGET, pool, target_ranking(pool), k=4)

    def test_both_positive(self):
        gateway = dual_stub_gateway()
        target = paper("t", "a saliency model viewer")
        decision = stage1.screen_paper(target, self.context(), gateway, ["primary", "secondary"])
        assert decision.decision == "positive"
        assert len(decision.verdicts) == 2

    def test_disagreement_is_negative(self):
        gateway = dual_stub_gateway()
        target = paper("t", "a saliency only viewer")
        decision = stage1.screen_paper(target, self.context(), gateway, ["primary", "secondary"])
        assert decision.decision == "negative"

    def test_backend_failure_marks_undecided(self):
        class AlwaysDown:
            name = "down"

            def complete(self, prompt):
                raise TransientBackendError("boom")

        gateway = Gateway(
            {"primary": KeywordStubBackend("primary", StubRules(screen_keywords=("saliency",))),
             "down": AlwaysDown()},
            max_attempts=2,
            backoff_base=0.0,
        )
        target = paper("t", "a saliency model viewer")
        decision = stage1.screen_paper(target, self.context(), gateway, ["primary", "down"])
        assert decision.decision == "undecided"
        assert decision.error

    def test_prompt_hashes_recorded(self):
        gateway = dual_stub_gateway()
        decision = stage1.screen_paper(
            paper("t", "saliency model"), self.context(), gateway, ["primary", "secondary"]
        )
        assert set(decision.prompt_hashes) == {"primary", "secondary"}
        assert all(len(h) == 64 for h in decision.prompt_hashes.values())

    def test_recorded_hashes_are_the_cache_keys(self, tmp_path):
        gateway = dual_stub_gateway(cache_dir=tmp_path / "cache")
        target, context = paper("t", "saliency model"), self.context()
        decision = stage1.screen_paper(target, context, gateway, ["primary", "secondary"])
        prompt = stage1.screening_request(target, context).render()
        for backend_id, key in decision.prompt_hashes.items():
            assert key == gateway_mod.prompt_hash(backend_id, prompt)
            assert gateway.cache.get(key) is not None


def twenty_paper_fixture():
    """6 labeled + 14 unlabeled papers with keyword-determined outcomes."""
    records = [
        paper("lab1", "saliency model inspection toolkit", "positive"),
        paper("lab2", "saliency model atlas for encoders", "positive"),
        paper("lab3", "saliency model dynamics over training", "positive"),
        paper("lab4", "treemap layouts for file systems", "negative"),
        paper("lab5", "cartographic generalization techniques", "negative"),
        paper("lab6", "volume rendering of cloud fields", "negative"),
    ]
    assignments = [(r.paper_id, r.label) for r in records]
    candidates_spec = [
        ("c01", "saliency model probe", True),
        ("c02", "saliency maps alone", False),
        ("c03", "model zoo catalog", False),
        ("c04", "interactive chart gallery", False),
        ("c05", "saliency model comparison views", True),
        ("c06", "timeline of model releases", False),
        ("c07", "saliency driven model editing", True),
        ("c08", "graph drawing with constraints", False),
        ("c09", "saliency free dashboards", False),
        ("c10", "a model of reading behavior", False),
        ("c11", "saliency and the model lens", True),
        ("c12", "uncertainty in projections", False),
        ("c13", "model saliency benchmark suite", True),
        ("c14", "scatterplot diagnostics", False),
    ]
    candidates = [paper(pid, title) for pid, title, _ in candidates_spec]
    expected_llm_positive = sorted(pid for pid, _, both in candidates_spec if both)
    pool = corpus.load_labeled_pool(records, assignments)
    return records + candidates, pool, expected_llm_positive


class TestRunStage1:
    def test_pool_positives_always_included(self):
        papers, pool, _ = twenty_paper_fixture()
        gateway = dual_stub_gateway()
        result = stage1.run_stage1([], pool, gateway, ["primary", "secondary"])
        assert [r.paper_id for r in result.subset] == ["lab1", "lab2", "lab3"]

    def test_stub_fixture_hand_enumeration(self):
        # Expected subset derived by hand: pool positives plus candidates
        # whose title carries both "saliency" and "model" (the two stub
        # keyword rules under strict consensus).
        papers, pool, expected_llm_positive = twenty_paper_fixture()
        gateway = dual_stub_gateway()
        result = stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
        assert [r.paper_id for r in result.subset] == sorted(
            ["lab1", "lab2", "lab3"] + expected_llm_positive
        )
        assert expected_llm_positive == ["c01", "c05", "c07", "c11", "c13"]
        assert result.retry == []

    def test_manual_labels_not_queried(self):
        papers, pool, _ = twenty_paper_fixture()
        gateway = dual_stub_gateway()
        result = stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
        manual = {d.paper_id: d for d in result.decisions if d.source == "manual"}
        assert set(manual) == {"lab1", "lab2", "lab3", "lab4", "lab5", "lab6"}
        assert all(not d.verdicts for d in manual.values())

    def test_deterministic_across_runs_and_thread_counts(self):
        papers, pool, _ = twenty_paper_fixture()
        outputs = []
        for workers in (1, 4, 1):
            gateway = dual_stub_gateway()
            result = stage1.run_stage1(
                papers, pool, gateway, ["primary", "secondary"], max_workers=workers
            )
            outputs.append(
                json.dumps(
                    {
                        "subset": [r.to_dict() for r in result.subset],
                        "decisions": [d.to_dict() for d in result.decisions],
                    },
                    sort_keys=True,
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_leakage_in_decision_log(self):
        papers, pool, _ = twenty_paper_fixture()
        gateway = dual_stub_gateway()
        result = stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
        for decision in result.decisions:
            assert decision.paper_id not in decision.neighbors

    def test_subset_within_candidates_and_pool_positives(self):
        papers, pool, _ = twenty_paper_fixture()
        gateway = dual_stub_gateway()
        result = stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
        allowed = {p.paper_id for p in papers} | set(pool.positives)
        assert {r.paper_id for r in result.subset} <= allowed

    def test_undecided_goes_to_retry_not_subset(self):
        class AlwaysDown:
            name = "secondary"

            def complete(self, prompt):
                raise TransientBackendError("offline")

        papers, pool, _ = twenty_paper_fixture()
        gateway = Gateway(
            {
                "primary": KeywordStubBackend(
                    "primary", StubRules(screen_keywords=("saliency",))
                ),
                "secondary": AlwaysDown(),
            },
            max_attempts=2,
            backoff_base=0.0,
        )
        result = stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
        assert len(result.retry) == 14  # every unlabeled candidate
        assert [r.paper_id for r in result.subset] == ["lab1", "lab2", "lab3"]


def failing_secondary_gateway(error_type, marker):
    """`dual_stub_gateway`, with the secondary backend failing on `marker`."""
    backends = dual_stub_gateway().backends
    backends["secondary"] = RaisingBackend(backends["secondary"], error_type, marker)
    return Gateway(backends, max_attempts=1, backoff_base=0.0)


class TestFailureRule:
    @pytest.mark.parametrize("error_type", ITEM_FAILURES)
    def test_failed_call_leaves_paper_undecided(self, error_type):
        papers, pool, _ = twenty_paper_fixture()
        gateway = failing_secondary_gateway(error_type, "saliency model probe")  # c01
        result = stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
        assert [r.paper_id for r in result.subset] == [
            "c05", "c07", "c11", "c13", "lab1", "lab2", "lab3",
        ]
        decision = next(d for d in result.decisions if d.paper_id == "c01")
        assert decision.decision == "undecided"
        assert [v.backend_id for v in decision.verdicts] == ["primary"]
        assert "injected failure" in decision.error
        assert result.retry == [("c01", decision.error)]

    def test_authentication_error_propagates(self):
        papers, pool, _ = twenty_paper_fixture()
        gateway = failing_secondary_gateway(AuthenticationError, "")
        with pytest.raises(AuthenticationError):
            stage1.run_stage1(papers, pool, gateway, ["primary", "secondary"])
