# reprolint-fixture-path: secure/good_clean.py
"""Known-good lint fixture: near-miss versions of every bad pattern.

Each function below is the *compliant* twin of one known-bad fixture;
every rule must stay quiet on this file."""

from repro.errors import IntegrityError


def validate(cycle):
    if cycle < 0:
        raise IntegrityError("negative cycle")
    return cycle


class Counted:
    def __init__(self, stats):
        self._events = stats.counter("events")

    def record(self):
        self._events.add()
