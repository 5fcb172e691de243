"""Dense twins of models, for tests that reach the dense-operand branches.

The presets store every operand as canonical CSR; a model's dense twin holds
the same Hamiltonian terms and jump operators as dense complex128 arrays.
"""

from lindbladiff.linalg import to_dense
from lindbladiff.model import JumpChannel, LindbladModel, LinearSchedule


def dense_twin(model: LindbladModel) -> LindbladModel:
    """``model`` (a LinearSchedule model) with every term and jump operator stored dense."""
    sched = model.hamiltonian
    constant = None if sched.constant is None else to_dense(sched.constant)
    schedule = LinearSchedule(terms=tuple(map(to_dense, sched.terms)), constant=constant)
    channels = tuple(JumpChannel(rate=ch.rate, operator=to_dense(ch.operator)) for ch in model.channels)
    return LindbladModel(hamiltonian=schedule, channels=channels, dimension=model.dimension)
