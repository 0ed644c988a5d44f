import signal
import time

import calibrate


def _clock(segments):
    """A clock with the given (start, end, factor) segments."""
    clock = calibrate.Clock.__new__(calibrate.Clock)
    clock.starts = [s for s, _, _ in segments]
    clock.ends = [e for _, e, _ in segments]
    clock.factors = [f for _, _, f in segments]
    return clock


def test_reference_time_skips_kernel_gaps_and_scales_each_segment():
    # program time 0-1 at factor 0.5, kernel 1-1.2, program 1.2-2 at 2
    clock = _clock([(0.0, 1.0, 0.5), (1.2, 2.0, 2.0)])
    assert clock.reference_seconds(0.0, 2.0) == 0.5 + 0.8 * 2.0
    assert clock.reference_seconds(0.5, 1.1) == 0.25
    assert abs(clock.reference_seconds(0.9, 1.5) - (0.05 + 0.6)) < 1e-12
    assert clock.reference_seconds(1.0, 1.2) == 0.0


def test_factor_is_reference_over_the_mean_of_the_bounding_samples():
    for name in calibrate.KERNELS:
        clock = calibrate.Clock(timer=False, kernel=name)
        reference = clock.reference_s
        clock.samples = [reference * 3]
        clock._sample()
        kernel_s = clock.samples[-1]
        assert clock.factors[-1] == reference * 2 / (reference * 3 + kernel_s)


def test_timer_samples_inside_a_long_call_and_is_removed_on_stop():
    clock = calibrate.Clock()
    start = time.perf_counter()
    while time.perf_counter() - start < 5 * calibrate.INTERVAL_S:
        pass                                    # one long "call"
    end = time.perf_counter()
    clock.stop()
    assert len(clock.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.reference_seconds(start, end) > 0
    # kernel time inside the call counts for nothing
    program = sum(min(end, e) - max(start, s)
                  for s, e in zip(clock.starts, clock.ends)
                  if s < end and e > start)
    assert program < end - start
