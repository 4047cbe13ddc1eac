"""The optimizer's step log, held in columns.

``fit_loop`` makes one record per update, ``{"step", "loss", "lr"}`` plus
the numeric fields its loss adds (distillation's ``lambda``), and a few
other records: a pass's ``after_pass`` record and a divergence. A list of
dicts would keep a Python object per update for the whole run, so a
``StepLog`` keeps each update's values in float64 columns, with the step
given by position, and only the other records as dicts, at their positions.
It iterates, indexes and compares equal as that list of dicts does.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

_UPDATE_KEYS = frozenset(("step", "loss", "lr"))


@dataclass(eq=False)
class _Fit:
    """One fit's records: its update columns, its other records, each with
    the number of updates before it, and the fields its ``tags`` add to every
    record."""

    loss: array = field(default_factory=lambda: array("d"))
    lr: array = field(default_factory=lambda: array("d"))
    extras: dict[str, array] = field(default_factory=dict)
    records: list[tuple[int, dict]] = field(default_factory=list)
    tags: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.loss) + len(self.records)

    def add_update(self, loss: float, lr: float, fields: dict) -> None:
        if not self.loss:
            self.extras = {name: array("d") for name in fields}
        elif fields.keys() != self.extras.keys():
            raise ValueError(f"an update's fields {sorted(fields)} are not the fit's "
                             f"{sorted(self.extras)}")
        self.loss.append(loss)
        self.lr.append(lr)
        for name, col in self.extras.items():
            col.append(fields[name])

    def add_record(self, record: dict) -> None:
        self.records.append((len(self.loss), record))

    def update(self, j: int) -> dict:
        return {"step": j + 1, "loss": self.loss[j], "lr": self.lr[j],
                **{name: col[j] for name, col in self.extras.items()}, **self.tags}

    def record(self, r: int) -> dict:
        return {**self.records[r][1], **self.tags}

    def __iter__(self) -> Iterator[dict]:
        r = 0
        for j in range(len(self.loss)):
            while r < len(self.records) and self.records[r][0] <= j:
                yield self.record(r)
                r += 1
            yield self.update(j)
        for r in range(r, len(self.records)):
            yield self.record(r)

    def __getitem__(self, i: int) -> dict:
        # record r sits after the k updates before it and the r records before it
        for r, (k, _) in enumerate(self.records):
            if k + r == i:
                return self.record(r)
            if k + r > i:
                return self.update(i - r)
        return self.update(i - len(self.records))


class StepLog(Sequence):
    """The records of one ``fit_loop`` run, or of several joined (``join``).

    ``add_update`` appends an update's loss, learning rate and extra fields
    to their columns; the first update of a fit names its extra fields, and
    every later one must give the same. ``add_record`` keeps any other
    record as it is, and ``other_records`` lists them. ``tagged`` adds
    fields to every record of a log without writing them into each, and
    ``read`` builds a log back from its records.
    """

    __slots__ = ("_fits",)

    def __init__(self, fits: Iterable[_Fit] = ()) -> None:
        self._fits = list(fits) or [_Fit()]

    def add_update(self, loss: float, lr: float, fields: dict) -> None:
        self._fits[-1].add_update(loss, lr, fields)

    def add_record(self, record: dict) -> None:
        self._fits[-1].add_record(record)

    def other_records(self) -> list[dict]:
        """The records that are not updates (``after_pass`` records and a
        divergence), in order, with no record made for an update."""
        return [fit.record(r) for fit in self._fits for r in range(len(fit.records))]

    def tagged(self, **tags) -> "StepLog":
        """This log with ``tags`` in every record; the columns are shared."""
        return StepLog(replace(fit, tags={**fit.tags, **tags}) for fit in self._fits)

    @classmethod
    def join(cls, logs: Iterable["StepLog"]) -> "StepLog":
        """The records of ``logs`` one after another; the columns are shared."""
        return cls(fit for log in logs for fit in log._fits)

    @classmethod
    def read(cls, records: Iterable[dict], tags: Sequence[str] = ()) -> "StepLog":
        """The log that iterates as ``records``, a log's records in order.

        A record with an ``lr`` and no ``event`` is an update; a new fit
        begins where the values of the ``tags`` fields change. An update
        whose step is not its position in its fit, or whose fields are not
        its fit's, raises ValueError.
        """
        fits: list[_Fit] = []
        for rec in records:
            tag = {name: rec[name] for name in tags}
            if not fits or fits[-1].tags != tag:
                fits.append(_Fit(tags=tag))
            fit, rec = fits[-1], {k: v for k, v in rec.items() if k not in tag}
            if "lr" not in rec or "event" in rec:
                fit.add_record(rec)
                continue
            if rec["step"] != len(fit.loss) + 1:
                raise ValueError(f"update {rec['step']} at position {len(fit.loss) + 1}")
            fit.add_update(float(rec["loss"]), float(rec["lr"]),
                           {k: float(v) for k, v in rec.items() if k not in _UPDATE_KEYS})
        return cls(fits)

    def __len__(self) -> int:
        return sum(len(fit) for fit in self._fits)

    def __iter__(self) -> Iterator[dict]:
        for fit in self._fits:
            yield from fit

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if not -n <= i < n:
            raise IndexError("step log index out of range")
        i %= n
        for fit in self._fits:
            if i < len(fit):
                return fit[i]
            i -= len(fit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (StepLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"StepLog({list(self)!r})"
