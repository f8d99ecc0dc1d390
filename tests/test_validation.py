import dataclasses

import pytest

from risgeo import deployment, validation
from risgeo.validation import CHECKS, CRITERIA


@pytest.fixture
def recorded(monkeypatch):
    """Replace every row's run by a recorder of its (trials, seed)."""
    seen = {}

    def recorder(check_id):
        def run(trials, seed):
            seen[check_id] = (trials, seed)
            return [(True, check_id)]

        return run

    monkeypatch.setattr(
        validation,
        "CHECKS",
        [dataclasses.replace(c, run=recorder(c.check_id)) for c in CHECKS],
    )
    return seen


class TestCheckTable:
    def test_every_criterion_owns_a_row(self):
        assert sorted(CRITERIA) == list(range(1, 11))
        owned = {check.criterion for check in CHECKS}
        assert set(CRITERIA) <= owned
        assert owned - set(CRITERIA) == {None}

    def test_row_ids_are_unique_and_fit_the_report_column(self):
        ids = [check.check_id for check in CHECKS]
        assert len(ids) == len(set(ids))
        assert max(map(len, ids)) <= 32

    def test_monte_carlo_criteria_pin_seed_and_trials(self):
        pinned = {n: (c.seed, c.trials) for n, c in CRITERIA.items() if c.trials}
        assert pinned == {
            2: (2024, 10**6),
            5: (55, 100_000),
            6: (66, 1_000_000),
            7: (77, 1_000_000),
            9: (99, 1_000_000),
        }

    def test_run_all_caps_each_row_at_its_criterion_count(self, recorded):
        results = validation.run_all(500_000, 7)
        assert [r.check_id for r in results] == [c.check_id for c in CHECKS]
        assert {seed for _, seed in recorded.values()} == {7}
        assert recorded["jensen_bound_dominance"][0] == 100_000
        assert recorded["reflection_moments_3sigma"][0] == 500_000
        assert recorded["sampler_ks_agreement"][0] == 500_000

    def test_run_criterion_uses_the_pinned_draws(self, recorded):
        parts = validation.run_criterion(9)
        assert parts == [(True, "pairwise_cosine_3sigma"), (True, "reflection_moments_3sigma")]
        assert set(recorded.values()) == {(1_000_000, 99)}


class TestOptimizerProductRow:
    """The closed-form product row takes D from quadrature, not from the optimizer."""

    def test_fails_when_the_objective_offset_shifts(self, monkeypatch):
        offset = deployment.objective_offset
        monkeypatch.setattr(
            deployment, "objective_offset", lambda params, regime: offset(params, regime) + 1e-9
        )
        check = next(c for c in CHECKS if c.check_id == "optimizer_closed_form_product")
        parts = check.run(0, 0)
        assert not all(ok for ok, _ in parts)
        assert any(not ok and detail.startswith("d_constant=") for ok, detail in parts)
