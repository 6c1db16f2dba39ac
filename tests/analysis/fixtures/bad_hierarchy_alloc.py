# reprolint-fixture-path: mem/hierarchy.py
"""Known-bad lint fixture: RPL009 (hot-path-allocation) fires exactly
once in the CPU hierarchy — a list display built by a per-access step."""


class LeakyHierarchy:
    def load(self, line_addr):
        return (True, [], 0)

    def drop_all(self):
        # Crash handling is not per access: not flagged.
        return []
