"""Self-time arithmetic and span parenting of the span recorder."""

import asyncio
import threading

import pytest

from spans import NO_SPAN, SpanRecorder, covered_length, self_time


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(0.0, 1.0)], 1.0),
    ([(0.0, 1.0), (2.0, 4.0)], 3.0),           # disjoint
    ([(0.0, 2.0), (1.0, 3.0)], 3.0),           # overlapping
    ([(0.0, 5.0), (1.0, 2.0), (3.0, 4.0)], 5.0),  # nested
    ([(2.0, 3.0), (0.0, 1.0), (0.5, 2.5)], 3.0),  # unsorted chain
    ([(1.0, 1.0), (2.0, 1.5)], 0.0),           # empty and inverted
])
def test_covered_length(intervals, expected):
    assert covered_length(intervals) == pytest.approx(expected)


def test_self_time_subtracts_nested_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == \
        pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # Two concurrent children covering [1, 6] together.
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 6.0)]) == \
        pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    # A detached child that ends after its parent covers only [8, 10].
    assert self_time(0.0, 10.0, [(8.0, 14.0)]) == pytest.approx(8.0)


def test_recorder_nested_self_times():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("outer"):
        clock.now = 1.0
        with recorder.span("inner"):
            clock.now = 3.0
            with recorder.span("leaf"):
                clock.now = 3.5
        clock.now = 4.0
        with recorder.span("inner"):
            clock.now = 6.0
        clock.now = 10.0
    # outer [0, 10] holds inner [1, 3.5] (with leaf [3, 3.5]) and
    # inner [4, 6].
    assert recorder.self_times() == pytest.approx(
        {"outer": 5.5, "inner": 4.0, "leaf": 0.5})
    assert recorder.counts() == {"outer": 1, "inner": 2, "leaf": 1}
    assert recorder.wall_times()["inner"] == pytest.approx(4.5)
    assert recorder.unfinished() == 0


def test_recorder_round_ids_and_round_fallback_parent():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.round_id = 7
    with recorder.span("round") as round_span:
        recorder.round_span = round_span
        clock.now = 1.0

        def helper_thread():
            with recorder.span("served"):
                clock.now = 3.0

        thread = threading.Thread(target=helper_thread)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        clock.now = 4.0
    recorder.round_span = NO_SPAN
    spans = {name: (parent, round_id)
             for _id, name, parent, round_id, _s, _e in recorder.spans()}
    # No span was open on the helper thread, so it hangs off the round.
    assert spans["served"] == (round_span, 7)
    assert recorder.self_times()["round"] == pytest.approx(2.0)


def test_recorder_keeps_one_chain_per_asyncio_task():
    recorder = SpanRecorder()
    order = []

    async def shard(name):
        with recorder.span(f"{name}.outer"):
            await asyncio.sleep(0)
            with recorder.span(f"{name}.inner"):
                order.append(name)
                await asyncio.sleep(0)

    async def main():
        await asyncio.gather(shard("a"), shard("b"))

    asyncio.run(main())
    ids = {name: (span_id, parent)
           for span_id, name, parent, _r, _s, _e in recorder.spans()}
    assert ids["a.inner"][1] == ids["a.outer"][0]
    assert ids["b.inner"][1] == ids["b.outer"][0]
    assert ids["a.outer"][1] == ids["b.outer"][1] == NO_SPAN
    assert order == ["a", "b"]


def test_detached_span_does_not_become_a_parent():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    name_id = recorder.name_id("task")
    task, token = recorder.open(name_id, detached=True)
    assert token is None
    with recorder.span("after") as after:
        clock.now = 1.0
    assert recorder.unfinished() == 1
    recorder.close(task)
    parents = {span_id: parent
               for span_id, _n, parent, _r, _s, _e in recorder.spans()}
    assert parents[after] == NO_SPAN


def test_write_csv_writes_every_span(tmp_path):
    recorder = SpanRecorder()
    for _ in range(3):
        with recorder.span("x"):
            pass
    path = tmp_path / "spans.csv"
    recorder.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "id,name,parent,round,thread,start,end"
    assert len(lines) == 4
