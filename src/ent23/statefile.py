"""Reading and writing pure states as JSON text.

Schema (UTF-8 JSON object, see ``states/`` for worked examples)::

    {
      "dims": [2, 3],
      "amplitudes": [[re, im], [re, im], ...]
    }

``dims`` is ``[2, 2]`` or ``[2, 3]`` (:data:`ent23.measures.SUPPORTED_DIMS`,
read here too).  ``amplitudes`` lists one ``[real, imaginary]`` pair of
numbers per basis state, ordered by the composite index ``d_b * i + j``
(qubit level ``i`` major), and must contain exactly ``2 * d_b`` entries
whose squared moduli sum to 1 within 1e-9.
Complex values are always explicit pairs; string forms like ``"1+2j"`` are
rejected with the rest of malformed input.  A file nested deeper than the
JSON decoder's recursion limit is malformed input too.

Reading costs one pass over the entries.  Each is checked with direct type
tests, ``type(x) in (int, float)``: the only subclass JSON yields is
``bool``, which they reject, so they accept exactly what
``isinstance(x, (int, float))`` accepts less ``bool``.  An error message is
formatted only when it is raised: for the first bad entry, its type checked
before its values.  The amplitudes then become an array in one
``np.array(entries, dtype=float)`` call, viewed as complex.  That rounds
each part, int or float, to the nearest double once, as ``complex(re, im)``
rounds it, and the view pairs the parts as ``(re, im)``, so the array has
the bits of one ``complex(re, im)`` per entry.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import StateFileError, UnsupportedDimensionError, ValidationError
from .linalg import _require_type
from .measures import SUPPORTED_DIMS, PureState

_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StateFileError(message)


def parse_state_file(text: str | bytes, renormalize: bool = False) -> PureState:
    """Parse state-file text into a :class:`PureState`: a ``str``, or bytes
    (any bytes-like object) decoded as UTF-8.

    With ``renormalize`` the amplitudes are scaled to unit norm before
    construction; otherwise a norm violation propagates as the usual
    construction error so that data-preparation bugs stay visible.
    """
    try:
        # str(text, "utf-8") decodes any contiguous bytes-like object, and
        # raises TypeError for anything else.
        payload = json.loads(text if isinstance(text, str) else str(text, "utf-8"))
    except TypeError:
        raise StateFileError("state file must be str or bytes, "
                             f"got {type(text).__name__}") from None
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise StateFileError("state file is nested too deeply") from None

    _require(isinstance(payload, dict), "top level must be a JSON object")
    _require("dims" in payload, "missing field 'dims'")
    _require("amplitudes" in payload, "missing field 'amplitudes'")

    # JSON yields only int, float, bool, str, None, list and dict, so these
    # type tests accept what isinstance does, less bool (module notes).
    dims = payload["dims"]
    _require(type(dims) is list and len(dims) == 2
             and type(dims[0]) is int and type(dims[1]) is int,
             "'dims' must be a pair of integers")
    if tuple(dims) not in SUPPORTED_DIMS:
        raise UnsupportedDimensionError(f"dims {dims} unsupported; expected "
                                        + " or ".join(str(list(d)) for d in SUPPORTED_DIMS))
    d_b = dims[1]

    entries = payload["amplitudes"]
    _require(type(entries) is list, "'amplitudes' must be an array")
    if len(entries) != 2 * d_b:
        raise StateFileError(f"'amplitudes' must contain {2 * d_b} pairs, got {len(entries)}")
    for idx, entry in enumerate(entries):
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) in _NUMBER and type(entry[1]) in _NUMBER):
            raise StateFileError(f"amplitudes[{idx}]: expected a [re, im] pair of numbers")
        # An int is compared with the float range exactly; NaN compares false.
        if not (-_FLOAT_MAX <= entry[0] <= _FLOAT_MAX and -_FLOAT_MAX <= entry[1] <= _FLOAT_MAX):
            raise StateFileError(f"amplitudes[{idx}]: values must be finite")
    # The bits of complex(re, im) per entry (module notes).
    values = np.array(entries, dtype=float).view(complex).reshape(2 * d_b)

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
    """Serialize one state (not a stack) in the file format; round-trips exactly."""
    if _require_type(psi, "psi", PureState).amplitudes.ndim != 2:
        raise ValidationError(f"a state file holds one state, got a stack {psi.amplitudes.shape}")
    pairs = [[z.real, z.imag] for z in psi.vector()]
    return json.dumps({"dims": [2, psi.d_b], "amplitudes": pairs}, indent=2) + "\n"
