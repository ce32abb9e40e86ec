"""Exact-integer matrices with labeled rows and columns."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LabeledIntMatrix:
    """Immutable integer matrix whose rows/columns carry string labels."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count does not match column labels")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def diff(self, other: "LabeledIntMatrix") -> list[tuple[int, int, int, int]]:
        """Positions (i, j, self_entry, other_entry) where the matrices differ."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = []
        for i, (ra, rb) in enumerate(zip(self.entries, other.entries)):
            for j, (a, b) in enumerate(zip(ra, rb)):
                if a != b:
                    out.append((i, j, a, b))
        return out

    def to_json_dict(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [list(row) for row in self.entries],
        }

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(label + "," + ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
