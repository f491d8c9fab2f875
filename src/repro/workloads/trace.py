"""Reference traces: the remote execution script of a workload."""

from array import array
from collections import namedtuple
from collections.abc import Sequence
from itertools import islice

TraceStep = namedtuple("TraceStep", "page_index write kind")
TraceStep.__doc__ = (
    "One remote memory reference: kind is 'real' (first touch of "
    "existing data), 'zero' (validated-but-untouched memory -> "
    "FillZero fault) or 'revisit' (re-reference of a page touched "
    "earlier; resident, so free)."
)

# A step's (write, kind) as one code byte: 2 * kind position + write.
_DECODE = tuple(
    (write, kind) for kind in ("real", "zero", "revisit")
    for write in (False, True)
)
_ENCODE = {pair: code for code, pair in enumerate(_DECODE)}


class TraceSteps(Sequence):
    """A trace's steps, stored by column.

    A read-only :class:`~collections.abc.Sequence` of :class:`TraceStep`
    that builds each step on demand (``len``, iteration, int and
    negative indexing; a slice is another ``TraceSteps``).  Page
    indices are a packed array and each step's ``(write, kind)`` is one
    code byte: 5 bytes a step, where a list of steps costs about 110.
    """

    __slots__ = ("page_indices", "codes")

    def __init__(self, steps=()):
        #: Each step's page index.
        self.page_indices = array("I")
        codes = bytearray()
        for step in steps:
            self.page_indices.append(step.page_index)
            codes.append(_ENCODE[step.write, step.kind])
        #: Each step's code: an index into the (write, kind) table.
        self.codes = bytes(codes)

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, position):
        if isinstance(position, slice):
            part = TraceSteps()
            part.page_indices = self.page_indices[position]
            part.codes = self.codes[position]
            return part
        return TraceStep(
            self.page_indices[position], *_DECODE[self.codes[position]]
        )

    def __iter__(self):
        for page_index, code in zip(self.page_indices, self.codes):
            yield TraceStep(page_index, *_DECODE[code])

    def references(self, start=0):
        """Yield each step from ``start`` on as a plain tuple
        ``(page_index, write, kind)``: the executing bodies' form,
        without a :class:`TraceStep` per step."""
        decode = _DECODE
        steps = zip(self.page_indices, self.codes)
        for page_index, code in islice(steps, start, None):
            write, kind = decode[code]
            yield page_index, write, kind


class ReferenceTrace:
    """The ordered references a process makes after migration.

    ``compute_s`` is spread uniformly across the steps as inter-touch
    CPU time, so fault service and computation interleave like a real
    program rather than front-loading either.
    """

    def __init__(self, steps, compute_s):
        #: The steps in order, as a columnar :class:`TraceSteps` (kept
        #: as handed when it already is one).
        if not isinstance(steps, TraceSteps):
            steps = TraceSteps(steps)
        self.steps = steps
        self.compute_s = float(compute_s)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"<ReferenceTrace steps={len(self.steps)} cpu={self.compute_s}s>"

    @property
    def compute_slice_s(self):
        """CPU time between consecutive references."""
        if not self.steps:
            return self.compute_s
        return self.compute_s / len(self.steps)

    @property
    def real_steps(self):
        return [s for s in self.steps if s.kind == "real"]

    @property
    def zero_steps(self):
        return [s for s in self.steps if s.kind == "zero"]

    @property
    def revisit_steps(self):
        return [s for s in self.steps if s.kind == "revisit"]

    def touched_real_pages(self):
        """Distinct real pages referenced."""
        return {s.page_index for s in self.real_steps}


def build_trace(spec, plan, rng):
    """Interleave real touches (in locality order) with zero touches.

    Every ``write_fraction`` of real touches is a write (exercising the
    copy-on-write break path); zero touches are spread evenly through
    the run.
    """
    every = max(1, round(1 / spec.write_fraction))
    steps = [
        TraceStep(index, position % every == 0, "real")
        for position, index in enumerate(plan.touched_order)
    ]
    zero_pages = list(plan.zero_touches)
    if zero_pages:
        stride = max(1, len(steps) // len(zero_pages)) if steps else 1
        position = 0
        for zero_index in zero_pages:
            position = min(position + stride, len(steps))
            steps.insert(position, TraceStep(zero_index, True, "zero"))
            position += 1
    steps = _insert_revisits(spec, steps, rng)
    return ReferenceTrace(steps, spec.compute_s)


def _insert_revisits(spec, steps, rng):
    """Weave re-references of already-touched pages through the trace.

    Each revisit lands after its page's first touch and re-reads an
    earlier real page — a resident hit, exercising temporal locality
    without changing which pages fault.
    """
    count = round(spec.revisit_fraction * sum(
        1 for step in steps if step.kind == "real"
    ))
    if count <= 0:
        return steps
    out = list(steps)
    for _ in range(count):
        position = rng.randrange(1, len(out) + 1)
        earlier_reals = [
            step for step in out[:position] if step.kind == "real"
        ]
        if not earlier_reals:
            continue
        target = rng.choice(earlier_reals)
        out.insert(position, TraceStep(target.page_index, False, "revisit"))
    return out
