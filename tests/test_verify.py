import pytest

from qinstr.errors import QinstrError
from qinstr.verify import SUITES, run_suite, run_suites


class TestSuiteRegistry:
    def test_expected_catalog(self):
        expected = {
            "ex-1", "ex-2", "ex-3", "ex-4", "ex-5", "ex-6", "ex-7", "ex-8",
            "lem-1.1", "lem-1.2", "lem-2.4", "lem-2.6", "lem-3.1", "lem-3.4",
            "lem-4.2", "thm-2.1", "thm-2.2", "thm-2.3", "thm-3.2", "thm-4.1",
            "thm-4.4", "thm-4.6", "thm-4.8", "cor-2.5", "cor-3.3", "cor-4.3",
            "cor-4.5", "cor-4.7", "conj-2.5-converse", "conj-3.3-converse",
        }
        assert set(SUITES) == expected

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_suite("thm-0.0")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_is_rejected(self, trials):
        with pytest.raises(QinstrError, match="trials must be at least 1"):
            run_suite("lem-1.1", trials=trials)
        with pytest.raises(QinstrError, match="trials must be at least 1"):
            run_suites(["lem-1.1"], trials=trials)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(QinstrError, match="seed must be nonnegative"):
            run_suite("lem-1.1", seed=-1)


@pytest.mark.parametrize("result_id", sorted(SUITES))
def test_suite_does_not_fail(result_id):
    report = run_suite(result_id, seed=0)
    assert report.status in ("pass", "unknown")
    if result_id.startswith("conj-"):
        assert report.status == "unknown"
    else:
        assert report.status == "pass"
    assert report.max_residual <= max(report.tolerance, 0.0) or report.status == "unknown"


def test_reports_deterministic_per_seed():
    first = run_suites(["lem-3.1", "thm-4.6"], seed=9)
    second = run_suites(["lem-3.1", "thm-4.6"], seed=9)
    assert [(r.result_id, r.max_residual, r.status) for r in first] == [
        (r.result_id, r.max_residual, r.status) for r in second
    ]


def test_different_seed_changes_draws():
    a = run_suite("lem-3.1", seed=1)
    b = run_suite("lem-3.1", seed=2)
    assert a.max_residual != b.max_residual


@pytest.mark.parametrize("result_id, solves", [("lem-1.1", 550), ("lem-2.4", 480), ("lem-3.1", 700), ("thm-2.3", 203)])
def test_eigensolve_budget(result_id, solves, eig_calls):
    # Exact counts of eigh/eigvalsh calls for one suite at seed 7: a check
    # re-run on an object that was already validated raises the count.
    run_suite(result_id, seed=7)
    assert len(eig_calls.calls) == solves


@pytest.mark.parametrize("seed", [94, 311])
def test_lem_1_2_redraws_near_unbiased_pairs(seed):
    # these seeds first draw a nearly unbiased "generic" pair
    assert run_suite("lem-1.2", seed=seed).status == "pass"
