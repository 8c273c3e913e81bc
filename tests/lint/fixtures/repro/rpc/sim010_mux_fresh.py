"""SIM010 negative fixture: mux window read through a conf view.

Same reloadable key as ``sim010_mux_stale.py``, but the window lives
in a ``conf.view(...)`` read on the send path, which re-parses after
every write.  This is exactly how ``repro.rpc.mux.ConnectionMux``
retunes a live connection.
"""


class FreshMux:
    def __init__(self, conf):
        self.conf = conf
        self._window = conf.view(
            lambda conf: conf.get_int("ipc.client.async.max-inflight")
        )

    def budget(self, inflight):
        return self._window() - inflight
