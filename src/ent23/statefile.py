"""Reading and writing pure states as JSON text.

Schema (UTF-8 JSON object, see ``states/`` for worked examples)::

    {
      "dims": [2, 3],
      "amplitudes": [[re, im], [re, im], ...]
    }

``dims`` is ``[2, 2]`` or ``[2, 3]``.  ``amplitudes`` lists one
``[real, imaginary]`` pair of numbers per basis state, ordered by the
composite index ``d_b * i + j`` (qubit level ``i`` major), and must contain
exactly ``2 * d_b`` entries whose squared moduli sum to 1 within 1e-9.
Complex values are always explicit pairs; string forms like ``"1+2j"`` are
rejected with the rest of malformed input.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import StateFileError, UnsupportedDimensionError
from .measures import PureState

SUPPORTED_DIMS = ((2, 2), (2, 3))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StateFileError(message)


def parse_state_file(text: str | bytes, renormalize: bool = False) -> PureState:
    """Parse state-file text into a :class:`PureState`.

    With ``renormalize`` the amplitudes are scaled to unit norm before
    construction; otherwise a norm violation propagates as the usual
    construction error so that data-preparation bugs stay visible.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StateFileError(f"state file is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    _require(isinstance(payload, dict), "top level must be a JSON object")
    _require("dims" in payload, "missing field 'dims'")
    _require("amplitudes" in payload, "missing field 'amplitudes'")

    dims = payload["dims"]
    _require(isinstance(dims, list) and len(dims) == 2
             and all(isinstance(d, int) and not isinstance(d, bool) for d in dims),
             "'dims' must be a pair of integers")
    if tuple(dims) not in SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"dims {dims} unsupported; expected [2, 2] or [2, 3]"
        )
    d_b = dims[1]

    entries = payload["amplitudes"]
    _require(isinstance(entries, list), "'amplitudes' must be an array")
    _require(len(entries) == 2 * d_b,
             f"'amplitudes' must contain {2 * d_b} pairs, got {len(entries)}")
    values = np.empty(2 * d_b, dtype=complex)
    for idx, entry in enumerate(entries):
        _require(isinstance(entry, list) and len(entry) == 2
                 and all(isinstance(part, (int, float)) and not isinstance(part, bool)
                         for part in entry),
                 f"amplitudes[{idx}]: expected a [re, im] pair of numbers")
        _require(all(abs(part) <= sys.float_info.max for part in entry),
                 f"amplitudes[{idx}]: values must be finite")
        values[idx] = complex(entry[0], entry[1])

    if renormalize:
        # Scaled first by the power of two that brings the largest part into
        # [0.5, 1), so the squares in the norm neither overflow nor underflow;
        # the scaling is exact, so it changes no bit of the result.
        parts = values.view(float)
        largest = float(np.abs(parts).max())
        _require(largest > 0.0, "cannot renormalize the zero vector")
        values = np.ldexp(parts, -math.frexp(largest)[1]).view(complex)
        values = values / np.linalg.norm(values)
    return PureState(values.reshape(2, d_b))


def render_state_file(psi: PureState) -> str:
    """Serialize a state in the file format; round-trips exactly."""
    vec = psi.vector()
    payload = {
        "dims": [2, psi.d_b],
        "amplitudes": [[z.real, z.imag] for z in vec],
    }
    return json.dumps(payload, indent=2) + "\n"
