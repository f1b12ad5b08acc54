import pytest

from clock import REFERENCE_S, SpeedClock, probe


class FakeTime:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_long_command_uses_the_probes_inside_it():
    now = FakeTime()
    clock = SpeedClock(now=now)
    clock.probes = [(0.0, REFERENCE_S)]
    now.t = 1.0
    mark = clock.start()
    # two probes inside: one at reference speed, one at half speed
    clock.probes += [(1.2, REFERENCE_S), (1.6, 2 * REFERENCE_S)]
    now.t = 2.0
    wall, scaled = clock.stop(mark)
    assert wall == pytest.approx(1.0)
    busy = 1.0 - 3 * REFERENCE_S
    assert scaled == pytest.approx(busy * (1.0 + 0.5) / 2)


def test_short_command_uses_the_recent_window():
    now = FakeTime()
    clock = SpeedClock(now=now)
    clock.probes = [(0.0, REFERENCE_S / 4), (0.8, REFERENCE_S / 2), (0.9, REFERENCE_S / 2)]
    now.t = 0.95
    mark = clock.start()
    now.t = 1.0
    wall, scaled = clock.stop(mark)
    assert scaled == pytest.approx(wall * 2.0)   # the probe at 0.0 is too old


def test_timer_restores_the_previous_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock(interval=0.001) as clock:
        for _ in range(200):
            probe()
    assert len(clock.probes) > 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
