"""SIM010 positive fixture: failover retry policy cached at init.

``StaleProxy`` reads ``ipc.client.failover.max.attempts`` once in
``__init__``, outside any ``conf.view`` — a runtime rewrite of the client failover policy is silently ignored, so a
mid-run operator tightening (say, fewer attempts during a planned
maintenance failover) never reaches the proxy.
"""


class StaleProxy:
    def __init__(self, conf):
        self.conf = conf
        self.max_attempts = conf.get_int("ipc.client.failover.max.attempts")

    def invoke(self):
        return self.max_attempts
