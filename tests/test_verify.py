import oplex.verify as verify
from oplex.merged import MergedOutcome


class TestBoundsSuiteDetails:
    def test_each_check_keeps_its_own_failure(self, monkeypatch):
        checks = MergedOutcome.checks
        monkeypatch.setattr(
            MergedOutcome,
            "checks",
            lambda self: {**checks(self), "consensus-in-interval": False},
        )
        results = {r.name: r for r in verify.run_bounds_suite(n_instances=3)}
        interval = results.pop("bounds/consensus-interval")
        assert not interval.passed
        assert interval.detail.startswith("instance 0: consensus ")
        assert len(results) == 4
        for result in results.values():
            assert result.passed
            assert result.detail == ""
