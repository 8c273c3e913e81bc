"""SIM010 positive fixture: adaptive-transport arm cached at init.

``StaleAdaptive`` reads ``ipc.ib.adaptive.enabled`` once in
``__init__``, outside any ``conf.view`` — an operator arming the predictor-driven transport mid-run is silently ignored and
every send keeps the static threshold decision.
"""


class StaleAdaptive:
    def __init__(self, conf):
        self.conf = conf
        self.enabled = conf.get_bool("ipc.ib.adaptive.enabled")

    def choose(self, eager):
        return eager if not self.enabled else not eager
