"""SIM010 positive fixture: reloadable conf key cached at init.

``StaleQueue`` reads ``ipc.callqueue.fair.weights`` once in
``__init__`` (via a same-class helper, to exercise the call graph),
outside any ``conf.view`` — a runtime ``ReloadPlan`` rewrite of the
key is silently ignored.
"""


class StaleQueue:
    def __init__(self, conf):
        self.conf = conf
        self._load_weights(conf)

    def _load_weights(self, conf):
        self.weights = conf.get_ints("ipc.callqueue.fair.weights")

    def take(self):
        return self.weights[0]
