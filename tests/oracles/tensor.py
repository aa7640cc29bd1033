"""The answer log read back out of an :class:`~repro.core.em_kernel.AnswerTensor`.

:func:`export_answers` walks the tensor one row at a time and rebuilds each
row's :class:`~repro.data.models.Answer` from its worker/task indices and its
contiguous run of label ticks.  Row order is insertion order with re-answers
rewritten in place, i.e. exactly the iteration order of the
:class:`~repro.data.models.AnswerSet` the tensor was grown from, so
``AnswerTensor.build`` over the exported answers reproduces the tensor —
the reference the checkpoint's column round trip
(:meth:`~repro.core.em_kernel.AnswerTensor.columns` →
:meth:`~repro.core.em_kernel.AnswerTensor.from_columns`) is checked against.
"""

from __future__ import annotations

from repro.core.em_kernel import AnswerTensor
from repro.data.models import Answer


def export_answers(tensor: AnswerTensor) -> list[Answer]:
    """Every row of ``tensor`` as an :class:`Answer`, in row order."""
    answers: list[Answer] = []
    starts = tensor.a_label_start
    num_labels = tensor.num_labels
    responses = tensor.responses
    for row in range(tensor.num_answers):
        tidx = int(tensor.a_task[row])
        start = int(starts[row])
        count = int(num_labels[tidx])
        answers.append(
            Answer(
                worker_id=tensor.worker_ids[int(tensor.a_worker[row])],
                task_id=tensor.task_ids[tidx],
                responses=tuple(int(v) for v in responses[start : start + count]),
            )
        )
    return answers
