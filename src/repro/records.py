"""Record and dataset containers.

The kSPR algorithms operate on a dataset of ``n`` records with ``d`` numeric
attributes each.  Larger attribute values are assumed to be *better* (the
paper's convention): the score of a record under a weight vector ``w`` is the
weighted sum of its attributes, and higher scores rank higher.

:class:`Dataset` is a thin, immutable wrapper around a ``(n, d)`` numpy array
plus per-record identifiers.  It also provides the pre-processing step of
Section 3.1 of the paper: records that *dominate* the focal record always
out-score it (so they only shift its rank by a constant), and records that are
*dominated by* the focal record never out-score it (so they are irrelevant).
:meth:`Dataset.partition_by_focal` splits the dataset accordingly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exceptions import InvalidDatasetError

__all__ = ["Record", "Dataset", "FocalPartition", "score", "scores"]


def score(values: np.ndarray, weights: np.ndarray) -> float:
    """Return the linear score ``values . weights`` (Equation 1 of the paper)."""
    return float(np.dot(np.asarray(values, dtype=float), np.asarray(weights, dtype=float)))


def scores(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Return the scores of every row of ``matrix`` under ``weights``."""
    return np.asarray(matrix, dtype=float) @ np.asarray(weights, dtype=float)


@dataclass(frozen=True)
class Record:
    """A single data record: an identifier plus its attribute vector."""

    record_id: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidDatasetError("record values must be a 1-D vector")
        if not np.all(np.isfinite(values)):
            raise InvalidDatasetError("record values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def dimensionality(self) -> int:
        """Number of attributes of the record."""
        return int(self.values.shape[0])

    def score(self, weights: np.ndarray) -> float:
        """Score of this record under ``weights``."""
        return score(self.values, weights)

    def dominates(self, other: "Record | np.ndarray") -> bool:
        """True if this record dominates ``other`` (>= everywhere, > somewhere)."""
        other_values = other.values if isinstance(other, Record) else np.asarray(other, dtype=float)
        return dominates(self.values, other_values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __len__(self) -> int:
        return self.dimensionality


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Dominance test under the "larger is better" convention.

    ``a`` dominates ``b`` iff ``a`` is no smaller than ``b`` in every
    dimension and strictly larger in at least one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a >= b) and np.any(a > b))


@dataclass(frozen=True)
class FocalPartition:
    """Result of splitting a dataset with respect to a focal record.

    Attributes
    ----------
    competitors:
        Records that neither dominate nor are dominated by the focal record.
        These are the only records whose hyperplanes need to be inserted.
    dominators:
        Number of records that dominate the focal record.  They out-score the
        focal record for *every* weight vector, so the effective ``k`` for the
        competitor-only sub-problem is ``k - dominators``.
    dominated:
        Number of records dominated by the focal record (irrelevant to kSPR).
    """

    competitors: "Dataset"
    dominators: int
    dominated: int

    def effective_k(self, k: int) -> int:
        """The value of ``k`` to use once dominators have been removed."""
        return k - self.dominators


class Dataset:
    """An immutable collection of records used as kSPR input.

    Parameters
    ----------
    values:
        Array-like of shape ``(n, d)``.
    ids:
        Optional sequence of ``n`` integer identifiers.  Defaults to
        ``0 .. n-1``.
    name:
        Optional human-readable name (used by the experiment harness).
    id_high_watermark:
        Smallest identifier guaranteed never to have been issued.  Defaults
        to ``max(ids) + 1`` (``0`` for an empty dataset), but derived
        datasets — and restored snapshots — carry the watermark of their
        ancestry so that deleting the max-id record can never cause a later
        :meth:`next_record_id` to resurrect the dead identifier.  The
        watermark is *identity state*, not content: it does not participate
        in :meth:`fingerprint`.
    """

    def __init__(
        self,
        values: Iterable[Sequence[float]] | np.ndarray,
        ids: Sequence[int] | np.ndarray | None = None,
        name: str = "dataset",
        id_high_watermark: int | None = None,
    ) -> None:
        array = np.asarray(values, dtype=float)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2:
            raise InvalidDatasetError("dataset values must form a 2-D array of shape (n, d)")
        if array.shape[1] < 1:
            raise InvalidDatasetError("dataset must have at least one attribute")
        if array.size and not np.all(np.isfinite(array)):
            raise InvalidDatasetError("dataset values must be finite")
        if ids is None:
            id_array = np.arange(array.shape[0], dtype=np.int64)
        else:
            id_array = np.asarray(ids, dtype=np.int64)
            if id_array.shape != (array.shape[0],):
                raise InvalidDatasetError("ids must have one entry per record")
            if len(np.unique(id_array)) != id_array.shape[0]:
                raise InvalidDatasetError("record ids must be unique")
        self._adopt(array.copy(), id_array.copy(), name, id_high_watermark)

    @classmethod
    def _trusted(
        cls, values: np.ndarray, ids: np.ndarray, name: str, id_high_watermark: int | None
    ) -> "Dataset":
        """A dataset over fresh, valid arrays the library made: no checks, no copies.

        ``values`` must be finite float ``(n, d)`` and ``ids`` unique int64,
        both used nowhere else; only the watermark is checked.
        """
        dataset = cls.__new__(cls)
        dataset._adopt(values, ids, name, id_high_watermark)
        return dataset

    def _adopt(
        self, values: np.ndarray, ids: np.ndarray, name: str, id_high_watermark: int | None
    ) -> None:
        values.setflags(write=False)
        ids.setflags(write=False)
        self._values = values
        self._ids = ids
        self.name = name
        floor = int(ids.max()) + 1 if ids.size else 0
        if id_high_watermark is None:
            self._id_high_watermark = floor
        else:
            watermark = int(id_high_watermark)
            if watermark < floor:
                raise InvalidDatasetError(
                    f"id_high_watermark {watermark} is not above the largest "
                    f"live record id ({floor - 1})"
                )
            self._id_high_watermark = watermark
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The read-only ``(n, d)`` attribute matrix."""
        return self._values

    @property
    def ids(self) -> np.ndarray:
        """The read-only vector of record identifiers."""
        return self._ids

    @property
    def cardinality(self) -> int:
        """Number of records ``n``."""
        return int(self._values.shape[0])

    @property
    def dimensionality(self) -> int:
        """Number of attributes ``d``."""
        return int(self._values.shape[1])

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self) -> Iterator[Record]:
        for record_id, row in zip(self._ids, self._values):
            yield Record(int(record_id), row)

    def __getitem__(self, index: int) -> Record:
        return Record(int(self._ids[index]), self._values[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset(name={self.name!r}, n={self.cardinality}, d={self.dimensionality})"

    def record_by_id(self, record_id: int) -> Record:
        """Return the record with the given identifier."""
        matches = np.nonzero(self._ids == record_id)[0]
        if matches.size == 0:
            raise KeyError(f"no record with id {record_id}")
        index = int(matches[0])
        return Record(record_id, self._values[index])

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content hash identifying this dataset's exact values and ids.

        Two datasets with the same records (same values, same ids, same row
        order) share a fingerprint; any insertion, deletion or value change
        produces a different one.  Used by :mod:`repro.engine` to key its
        result cache, so stale results can never be served after an update.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(np.int64(self._values.shape[0]).tobytes())
            digest.update(np.int64(self._values.shape[1]).tobytes())
            digest.update(np.ascontiguousarray(self._values).tobytes())
            digest.update(np.ascontiguousarray(self._ids).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def id_high_watermark(self) -> int:
        """Smallest identifier guaranteed never to have been issued.

        Monotone across derivations: deleting records never lowers it, so an
        id freed by a deletion is never handed out again.  (The historical
        ``max(ids) + 1`` policy silently reassigned the dead id after a
        delete-max-then-insert sequence, conflating two distinct records in
        caches, stream checkpoints and persisted snapshots.)
        """
        return self._id_high_watermark

    def next_record_id(self) -> int:
        """Smallest identifier that was provably never issued (stable-id policy).

        Served from :attr:`id_high_watermark` rather than ``max(ids) + 1``:
        the two differ exactly when the max-id record has been deleted, in
        which case reusing its id would alias the dead record in anything
        keyed on identifiers.
        """
        return self._id_high_watermark

    def with_appended(
        self, values: Sequence[float] | np.ndarray, record_id: int | None = None
    ) -> "Dataset":
        """Return a new dataset with one record appended under a fresh stable id.

        ``record_id`` defaults to :meth:`next_record_id`; passing an id that is
        already in use raises :class:`InvalidDatasetError`.
        """
        row = np.asarray(values, dtype=float)
        if row.shape != (self.dimensionality,):
            raise InvalidDatasetError(
                "appended record dimensionality does not match the dataset"
            )
        if record_id is None:
            record_id = self.next_record_id()
        elif np.any(self._ids == record_id):
            raise InvalidDatasetError(f"record id {record_id} is already in use")
        new_values = np.vstack([self._values, row[None, :]])
        new_ids = np.concatenate([self._ids, [record_id]])
        return Dataset(
            new_values,
            ids=new_ids,
            name=self.name,
            id_high_watermark=max(self._id_high_watermark, int(record_id) + 1),
        )

    # ------------------------------------------------------------------ #
    # scoring and ranking
    # ------------------------------------------------------------------ #
    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Scores of every record under ``weights``."""
        return scores(self._values, weights)

    def top_k(self, weights: np.ndarray, k: int) -> list[int]:
        """Ids of the ``k`` highest-scoring records under ``weights``."""
        if k <= 0:
            return []
        record_scores = self.scores(weights)
        order = np.argsort(-record_scores, kind="stable")[: min(k, self.cardinality)]
        return [int(self._ids[i]) for i in order]

    def rank_of(self, focal: np.ndarray, weights: np.ndarray) -> int:
        """Rank of an (external) focal record under ``weights``.

        The rank is ``1 +`` the number of dataset records scoring strictly
        higher than the focal record, matching Lemma 1 of the paper.
        """
        focal_score = score(np.asarray(focal, dtype=float), weights)
        higher = int(np.sum(self.scores(weights) > focal_score + 0.0))
        return higher + 1

    # ------------------------------------------------------------------ #
    # focal-record pre-processing (Section 3.1)
    # ------------------------------------------------------------------ #
    def partition_by_focal(self, focal: np.ndarray) -> FocalPartition:
        """Split the dataset into competitors / dominators / dominated w.r.t. ``focal``."""
        focal = np.asarray(focal, dtype=float)
        if focal.shape != (self.dimensionality,):
            raise InvalidDatasetError(
                "focal record dimensionality does not match the dataset"
            )
        from .index.dominance import order_masks  # local: records <-> index

        at_most, at_least = order_masks(self._values, focal)
        dominators = np.count_nonzero(at_least & ~at_most)
        # Rows equal to the focal record count as dominated.
        dominated = np.count_nonzero(at_most)
        competitor_mask = ~(at_most | at_least)
        # A row subset of this dataset is finite and has unique ids already.
        competitors = Dataset._trusted(
            np.compress(competitor_mask, self._values, axis=0),
            np.compress(competitor_mask, self._ids),
            self.name,
            self._id_high_watermark,
        )
        return FocalPartition(competitors, int(dominators), int(dominated))

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        """Return a new dataset holding only the rows at ``indices``.

        The id watermark is inherited: a subset (and hence
        :meth:`without_ids`) never forgets which identifiers its ancestry
        already issued.
        """
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            self._values[indices],
            ids=self._ids[indices],
            name=self.name,
            id_high_watermark=self._id_high_watermark,
        )

    def without_ids(self, excluded: Iterable[int]) -> "Dataset":
        """Return a dataset excluding the records whose id is in ``excluded``."""
        excluded_set = set(int(x) for x in excluded)
        keep = [i for i, rid in enumerate(self._ids) if int(rid) not in excluded_set]
        return self.subset(keep)
