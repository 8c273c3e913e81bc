"""SIM010 negative fixture: reloadable key read through a conf view.

Same key as ``sim010_stale.py``, but the cache built in ``__init__``
is a ``conf.view(...)``, which re-parses on the first read after any
write — exactly how ``repro.rpc.callqueue.FairCallQueue`` holds its
QoS tunables.
"""


class FreshQueue:
    def __init__(self, conf):
        self.conf = conf
        self._weights = conf.view(
            lambda conf: conf.get_ints("ipc.callqueue.fair.weights")
        )

    def take(self):
        return self._weights()[0]
