"""SIM010 negative fixture: failover policy read through a conf view.

Same reloadable key as ``sim010_failover_stale.py``, but the policy
lives in a ``conf.view(...)`` read on the invoke path, which re-parses
after every write.  This is exactly how
``repro.rpc.failover.FailoverProxy`` stays hot-reload fresh.
"""


class FreshProxy:
    def __init__(self, conf):
        self.conf = conf
        self._policy = conf.view(
            lambda conf: conf.get_int("ipc.client.failover.max.attempts")
        )

    def invoke(self):
        return self._policy()
