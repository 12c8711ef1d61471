import threading

import pytest

from spans import Patches, Span, Tracer, layer_stats, package_modules, root_coverage, self_times


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = Tracer(fake_clock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    second = tracer.open("inner")
    tracer.close(second)
    tracer.close(outer)
    assert inner.parent == outer.id and second.parent == outer.id
    stats = layer_stats(tracer.spans)
    assert stats["outer"].calls == 1
    assert stats["outer"].self_s == pytest.approx(10.0 - 2.0 - 2.0)
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == pytest.approx(4.0)


def test_overlapping_children_on_two_threads_count_once():
    spans = [
        Span(1, None, 0, 1, "parent", 0.0, 10.0),
        Span(2, 1, 0, 2, "child", 1.0, 5.0),
        Span(3, 1, 0, 3, "child", 3.0, 7.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0)
    assert own[2] == pytest.approx(4.0) and own[3] == pytest.approx(4.0)
    assert root_coverage(spans, 20.0) == pytest.approx(0.5)


def test_each_thread_keeps_its_own_stack():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()  # both threads hold an open outer span here

    inner_w = tracer.wrap("inner", inner)
    outer_w = tracer.wrap("outer", lambda: inner_w())
    threads = [threading.Thread(target=outer_w) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    outers = {s.thread: s for s in tracer.spans if s.name == "outer"}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    for s in inners:
        assert s.parent == outers[s.thread].id


def test_worker_thread_spans_nest_under_the_operation():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: sum(range(1000)))

    def fan_out():
        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)

    op = tracer.begin_op()
    tracer.wrap("pool", fan_out)()
    pool = next(s for s in tracer.spans if s.name == "pool")
    workers = [s for s in tracer.spans if s.name == "work"]
    assert len(workers) == 3
    assert all(s.parent == pool.id and s.op == op for s in workers)
    assert all(s.thread != pool.thread for s in workers)
    own = self_times(tracer.spans)
    assert 0.0 <= own[pool.id] <= pool.end - pool.start


def test_call_through_verify_train_is_traced_and_restored():
    import collapse_lab.verify as verify
    from collapse_lab import closed_form, trainer
    from collapse_lab.data import center, generate, random_spec
    from collapse_lab.spectrum import compute_spectrum

    original = trainer.train
    sp = compute_spectrum(center(generate(random_spec(2, 2, 50, seed=0)))[0])
    hp = closed_form.Hyperparams(beta=1.0, latent_dim=2)
    tracer = Tracer()
    patches = Patches()
    assert patches.replace(package_modules("collapse_lab"), original,
                           tracer.wrap("trainer.train", original)) >= 2
    try:
        assert verify.train is trainer.train is not original
        verify.train(0, trainer.Moments.from_spectrum(sp), hp,
                     trainer.TrainConfig(max_steps=5))
    finally:
        patches.restore()
    assert [s.name for s in tracer.spans] == ["trainer.train"]
    assert verify.train is original and trainer.train is original


def test_meter_counts_calls_through_verify_train_and_stops_at_deadline():
    import time

    import collapse_lab
    import collapse_lab.verify as verify
    from collapse_lab import closed_form, trainer
    from collapse_lab.data import center, generate, random_spec
    from collapse_lab.spectrum import compute_spectrum
    from workloads import Meter, StopRun

    sp = compute_spectrum(center(generate(random_spec(2, 2, 50, seed=1)))[0])
    moments = trainer.Moments.from_spectrum(sp)
    hp = closed_form.Hyperparams(beta=1.0, latent_dim=2)
    cfg = trainer.TrainConfig(max_steps=7)
    meter = Meter(time.perf_counter)
    patches = Patches()
    meter.install(patches, package_modules("collapse_lab"), collapse_lab)
    try:
        meter.reset()
        result = verify.train(0, moments, hp, cfg)
        assert meter.counts["train.calls"] == 1
        assert meter.counts["train.steps"] == result.steps
        meter.reset(deadline=time.perf_counter() - 1.0)
        with pytest.raises(StopRun):
            verify.train(0, moments, hp, cfg)
        with pytest.raises(StopRun):
            trainer.train(0, moments, hp, cfg)
        assert meter.counts["train.calls"] == 0
    finally:
        patches.restore()
    assert verify.train is trainer.train
    assert not hasattr(verify.train, "__wrapped__")
