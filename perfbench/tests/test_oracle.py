"""The ground-truth oracle counts every wrong device-round as failed."""

from types import SimpleNamespace

from oracle import GroundTruth

IDS = ["dev-0000", "dev-0001", "dev-0002", "dev-0003"]


def report(device_id, status):
    return SimpleNamespace(device_id=device_id,
                           status=SimpleNamespace(value=status))


def stats(lost=0, stale=0):
    return SimpleNamespace(responses_lost=lost, stale_responses_rejected=stale)


def truthful(round_no, truth):
    return [report(d, truth.expected(round_no, d)) for d in IDS]


def test_expected_statuses_follow_the_infection_round():
    truth = GroundTruth(IDS, ["dev-0002"], infection_round=2)
    assert truth.expected(1, "dev-0002") == "healthy"
    assert truth.expected(2, "dev-0002") == "infected"
    assert truth.expected(5, "dev-0002") == "infected"
    assert truth.expected(5, "dev-0001") == "healthy"


def test_correct_rounds_fail_nothing():
    truth = GroundTruth(IDS, ["dev-0002"], infection_round=2)
    for round_no in (1, 2, 3):
        assert truth.check_round(round_no, truthful(round_no, truth),
                                 stats()) == 0
    assert (truth.attempted, truth.failed) == (12, 0)
    assert truth.problems == []


def test_a_wrong_verdict_counts_as_failed():
    truth = GroundTruth(IDS, ["dev-0002"], infection_round=2)
    reports = truthful(2, truth)
    reports[2] = report("dev-0002", "healthy")      # missed infection
    reports[0] = report("dev-0000", "tampered")     # false alarm
    assert truth.check_round(2, reports, stats()) == 2
    assert truth.failed == 2
    assert "round 2" in truth.problems[0]


def test_missing_duplicate_and_unknown_reports_fail():
    truth = GroundTruth(IDS, [], infection_round=2)
    reports = truthful(1, truth)[:3]                 # dev-0003 missing
    reports.append(report("dev-0000", "healthy"))    # duplicate
    reports.append(report("dev-9999", "healthy"))    # not in the fleet
    assert truth.check_round(1, reports, stats()) == 3


def test_lost_and_stale_responses_fail():
    truth = GroundTruth(IDS, [], infection_round=2)
    reports = truthful(1, truth)
    reports[1] = report("dev-0001", "no_data")
    # The lost response is one failure, not two; the stale one adds one.
    assert truth.check_round(1, reports, stats(lost=1, stale=1)) == 2


def test_failures_never_exceed_the_round():
    truth = GroundTruth(IDS, [], infection_round=2)
    assert truth.check_round(1, [], stats(lost=4, stale=9)) == len(IDS)
