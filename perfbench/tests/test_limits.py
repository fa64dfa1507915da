import time

from zbench.limits import OpTimeout, timed_call


def test_op_that_spins_is_stopped_and_recorded():
    def spin():
        while True:
            pass

    t0 = time.perf_counter()
    ns, result, err = timed_call(spin, 0.2)
    assert isinstance(err, OpTimeout) and result is None
    assert 0.2 <= ns / 1e9 < 2.0
    assert time.perf_counter() - t0 < 2.0


def test_op_that_raises_is_recorded_and_the_caller_goes_on():
    def boom():
        raise ZeroDivisionError("no")

    ns, result, err = timed_call(boom, 5.0)
    assert isinstance(err, ZeroDivisionError)
    ns, result, err = timed_call(lambda: 42, 5.0)
    assert (result, err) == (42, None) and ns > 0


def test_unbudgeted_power_is_cut_off():
    """(x+y+z+1)^80 over QQ runs for minutes; the limit ends it."""
    from zariski import QQ, PolyRing

    ring = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = ring.gens()
    base = x + y + z + ring.one
    ns, result, err = timed_call(lambda: base**80, 0.5)
    assert isinstance(err, OpTimeout)
    assert ns / 1e9 < 5.0
