"""Process-wide counters instrumenting the expensive pipeline stages.

Tests use these to assert the cost contract (one forward integration and one
backward pass per gradient evaluation).  The reverse-pass memory ceiling is
read from each gradient's ``diagnostics``, whose ``peak_retained_states`` the
counter of that name mirrors.
Counting is observational only and never changes numerical behavior.
"""

from dataclasses import asdict, dataclass, fields


@dataclass
class Counters:
    forward_integrations: int = 0
    adjoint_passes: int = 0
    rhs_evaluations: int = 0
    adjoint_rhs_evaluations: int = 0
    adjoint_generator_applications: int = 0
    peak_retained_states: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def note_retained_states(self, n: int) -> None:
        if n > self.peak_retained_states:
            self.peak_retained_states = n

    def snapshot(self) -> dict:
        return asdict(self)


#: Module-level singleton; reset() it around a measured section.
counters = Counters()
