"""SIM010 positive fixture: mux in-flight window cached at init.

``StaleMux`` reads ``ipc.client.async.max-inflight`` once in
``__init__``, outside any ``conf.view`` — a runtime retune of the pipelining window is silently ignored, so an operator
widening the window mid-incast never reaches the live connection.
"""


class StaleMux:
    def __init__(self, conf):
        self.conf = conf
        self.window = conf.get_int("ipc.client.async.max-inflight")

    def budget(self, inflight):
        return self.window - inflight
