"""SIM010 negative fixture: adaptive arm read through a conf view.

Same reloadable key as ``sim010_adaptive_stale.py``, but the arm flag
lives in a ``conf.view(...)`` read on the decision path, which
re-parses after every write.  This is exactly how
``repro.net.verbs.AdaptiveTransport`` arms or retunes mid-run.
"""


class FreshAdaptive:
    def __init__(self, conf):
        self.conf = conf
        self._enabled = conf.view(
            lambda conf: conf.get_bool("ipc.ib.adaptive.enabled")
        )

    def choose(self, eager):
        return eager if not self._enabled() else not eager
