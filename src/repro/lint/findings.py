"""Finding records and the rule catalogue."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: rule code -> one-line summary (the authoritative rule list; the
#: implementations live in :mod:`repro.lint.rules`).
RULES = {
    "SIM000": "file cannot be linted (syntax error) or malformed "
              "sim-lint directive",
    "SIM001": "wall-clock read outside the experiments harness",
    "SIM002": "nondeterministic randomness (use repro.simcore.rng streams)",
    "SIM003": "buffer-pool acquisition without a release on every path",
    "SIM004": "simulated-time hazard (float == on times, negative delay)",
    "SIM005": "discarded process handle / bare generator call",
    "SIM006": "cost charged with a literal instead of calibration constants",
    "SIM007": "fault injector or RPC scheduler drawing outside "
              "repro.simcore.rng named streams",
    "SIM008": "bytes(...) copy on the zero-copy serialization path",
    "SIM009": "same-timestamp shared-state hazard between process bodies "
              "(whole-program)",
    "SIM010": "reloadable conf key cached at init outside a "
              "Configuration.view (whole-program)",
    "SIM011": "encoder/decoder wire sequences do not mirror "
              "(whole-program)",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def baseline_key(self) -> Tuple[str, str, str]:
        """Identity used by the baseline file.

        Line/column are deliberately excluded so unrelated edits above a
        grandfathered finding do not un-baseline it.
        """
        return (self.rule, self.path, self.message)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
