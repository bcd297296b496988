"""Goedel numbering of restricted formulas.

Codes are built from one injective pairing `pair(a, b)`: the binary numeral
"1" ++ delta(a+1) ++ delta(b+1), read as a natural, where delta is the Elias
delta code.  The pairing is injective with decidable image and grows linearly
in the payload bit-length, so codes of deep formulas stay small.  On top of
it, documented bit-exactly so stored codes stay valid across versions:

  code(formula)        = pair(preset_tag, node)
  preset_tag           : metric=0, cstar=1, tvna=2
  node                 = pair(tag, payload) with formula tags
                         0 Zero |payload 0|, 1 One |0|, 2 Half |body|,
                         3 DotMinus |pair(left, right)|,
                         4 Sup |pair(name, body)|, 5 Inf |pair(name, body)|,
                         6 Atomic |pair(name, args)|
  term                 = pair(tag, payload) with term tags
                         0 Var |name|, 1 CConst |index-1|,
                         2 reserved (never decodes),
                         3 App |pair(name, args)|,
                         4 Comb |pair(pair(lam, mu), pair(left, right))|
  name                 = int.from_bytes(utf8), valid identifiers only
  args                 = left fold of pair over the fixed symbol arity
  lam, mu              = Gaussian-rational codes from contlogic.pairing

Decoding is total: any natural either decodes or raises NotACode, never
crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import formulas as F
from .gaussian import ContlogicError
from .pairing import decode_tuple, encode_tuple, gaussian_to_nat, nat_to_gaussian


class NotACode(ContlogicError):
    pass


PRESET_TAGS = {"metric": 0, "cstar": 1, "tvna": 2}
TAG_PRESETS = {v: k for k, v in PRESET_TAGS.items()}

_F_ZERO, _F_ONE, _F_HALF, _F_DOTMINUS, _F_SUP, _F_INF, _F_ATOMIC = range(7)
_T_VAR, _T_CCONST, _T_APP, _T_COMB = 0, 1, 3, 4  # term tag 2 is reserved


# ---------------------------------------------------------------------------
# the code pairing: "1" ++ delta(a+1) ++ delta(b+1) in binary
# ---------------------------------------------------------------------------


def _delta(n: int) -> tuple[int, int]:
    """Elias delta code of n >= 1 as (bits, length): the gamma code of
    nb = bitlen(n), i.e. bitlen(nb) - 1 zeros and nb, then the nb - 1 low
    bits of n (its leading 1 dropped)."""
    nb = n.bit_length()
    return (nb << (nb - 1)) | (n ^ (1 << (nb - 1))), 2 * nb.bit_length() + nb - 2


def _read_delta(n: int, rem: int) -> tuple[int, int]:
    """Read the delta code at the top of n's low `rem` bits: (value, bits
    left below it)."""
    low = n & ((1 << rem) - 1)
    width = low.bit_length()
    zeros = rem - width  # the header is zeros + 1 bits from low's leading 1
    if zeros + 1 > width:
        raise NotACode("truncated delta header")
    rem = width - zeros - 1
    nb = low >> rem
    if nb - 1 > rem:
        raise NotACode("truncated delta payload")
    rem -= nb - 1
    return (1 << (nb - 1)) | ((low >> rem) & ((1 << (nb - 1)) - 1)), rem


def pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("pair needs naturals")
    da, la = _delta(a + 1)
    db, lb = _delta(b + 1)
    return (((1 << la) | da) << lb) | db


def unpair(n: int) -> tuple[int, int]:
    """Inverse of `pair` on its image; raises NotACode elsewhere."""
    if n <= 0:
        raise NotACode("not in the pairing image")
    a, rem = _read_delta(n, n.bit_length() - 1)  # below the leading 1
    b, rem = _read_delta(n, rem)
    if rem:
        raise NotACode("trailing bits after pair")
    return a - 1, b - 1


def _encode_name(name: str) -> int:
    return int.from_bytes(name.encode("utf-8"), "big")


def _decode_name(code: int) -> str:
    if code <= 0:
        raise NotACode("empty name")
    raw = code.to_bytes((code.bit_length() + 7) // 8, "big")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotACode("name is not valid UTF-8") from exc
    if not F.IDENT_RE.match(name):
        raise NotACode(f"name {name!r} is not an identifier")
    return name


def _encode_term(t: F.Term) -> int:
    if isinstance(t, F.Var):
        return pair(_T_VAR, _encode_name(t.name))
    if isinstance(t, F.CConst):
        return pair(_T_CCONST, t.index - 1)
    if isinstance(t, F.App):
        args = encode_tuple([_encode_term(a) for a in t.args], pair)
        return pair(_T_APP, pair(_encode_name(t.func), args))
    if isinstance(t, F.Comb):
        coeffs = pair(gaussian_to_nat(t.lam), gaussian_to_nat(t.mu))
        sides = pair(_encode_term(t.left), _encode_term(t.right))
        return pair(_T_COMB, pair(coeffs, sides))
    raise F.FormulaError(f"not a term: {t!r}")


def _decode_term(code: int, sig: F.Signature) -> F.Term:
    tag, payload = unpair(code)
    if tag == _T_VAR:
        return F.Var(_decode_name(payload))
    if tag == _T_CCONST:
        return F.CConst(payload + 1)
    if tag == _T_APP:
        name_code, args_code = unpair(payload)
        name = _decode_name(name_code)
        arity = sig.functions.get(name)
        if arity is None:
            raise NotACode(f"function {name!r} not in signature {sig.name}")
        args = tuple(_decode_term(a, sig) for a in decode_tuple(args_code, arity, unpair))
        return F.App(name, args)
    if tag == _T_COMB:
        if not sig.allow_comb:
            raise NotACode(f"comb not available in signature {sig.name}")
        coeffs, sides = unpair(payload)
        lam_code, mu_code = unpair(coeffs)
        left_code, right_code = unpair(sides)
        lam, mu = nat_to_gaussian(lam_code), nat_to_gaussian(mu_code)
        if not F.rounded_bound_ok(lam, mu):
            raise NotACode("rounded-combination bound violated")
        return F.Comb(lam, mu, _decode_term(left_code, sig), _decode_term(right_code, sig))
    raise NotACode(f"unknown term tag {tag}")


def _encode_node(f: F.Formula) -> int:
    if isinstance(f, F.Zero):
        return pair(_F_ZERO, 0)
    if isinstance(f, F.One):
        return pair(_F_ONE, 0)
    if isinstance(f, F.Half):
        return pair(_F_HALF, _encode_node(f.body))
    if isinstance(f, F.DotMinus):
        return pair(_F_DOTMINUS, pair(_encode_node(f.left), _encode_node(f.right)))
    if isinstance(f, F.Sup):
        return pair(_F_SUP, pair(_encode_name(f.var), _encode_node(f.body)))
    if isinstance(f, F.Inf):
        return pair(_F_INF, pair(_encode_name(f.var), _encode_node(f.body)))
    if isinstance(f, F.Atomic):
        args = encode_tuple([_encode_term(a) for a in f.args], pair)
        return pair(_F_ATOMIC, pair(_encode_name(f.pred), args))
    raise F.FormulaError(f"not a formula: {f!r}")


def _decode_node(code: int, sig: F.Signature) -> F.Formula:
    tag, payload = unpair(code)
    if tag == _F_ZERO:
        if payload != 0:
            raise NotACode("Zero carries no payload")
        return F.Zero()
    if tag == _F_ONE:
        if payload != 0:
            raise NotACode("One carries no payload")
        return F.One()
    if tag == _F_HALF:
        return F.Half(_decode_node(payload, sig))
    if tag == _F_DOTMINUS:
        left, right = unpair(payload)
        return F.DotMinus(_decode_node(left, sig), _decode_node(right, sig))
    if tag in (_F_SUP, _F_INF):
        name_code, body = unpair(payload)
        cls = F.Sup if tag == _F_SUP else F.Inf
        return cls(_decode_name(name_code), _decode_node(body, sig))
    if tag == _F_ATOMIC:
        name_code, args_code = unpair(payload)
        name = _decode_name(name_code)
        arity = sig.predicates.get(name)
        if arity is None:
            raise NotACode(f"predicate {name!r} not in signature {sig.name}")
        args = tuple(_decode_term(a, sig) for a in decode_tuple(args_code, arity, unpair))
        return F.Atomic(name, args)
    raise NotACode(f"unknown formula tag {tag}")


# ---------------------------------------------------------------------------
# public coding API
# ---------------------------------------------------------------------------


def encode(formula: F.Formula, sig: F.Signature) -> int:
    """Injective Goedel code of a well-formed formula over a preset signature."""
    if sig.name not in PRESET_TAGS:
        raise F.UnknownSymbol(f"signature {sig.name!r} is not registered for coding")
    F.validate(formula, sig)
    return pair(PRESET_TAGS[sig.name], _encode_node(formula))


def decode_full(code: int) -> tuple[F.Signature, F.Formula]:
    if code < 0:
        raise NotACode("negative")
    preset_tag, node = unpair(code)
    if preset_tag not in TAG_PRESETS:
        raise NotACode(f"unknown signature tag {preset_tag}")
    sig = F.PRESETS[TAG_PRESETS[preset_tag]]
    return sig, _decode_node(node, sig)


def decode(code: int) -> F.Formula:
    return decode_full(code)[1]


def coding_f(p: int, n: int) -> int:
    """Code of (formula_p -. 2^-n), the 2^-n built as Half^n(One)."""
    if n < 0:
        raise ValueError("n must be a natural")
    sig, _ = decode_full(p)  # validates p
    preset_tag, node = unpair(p)
    const = pair(_F_ONE, 0)
    for _ in range(n):
        const = pair(_F_HALF, const)
    return pair(preset_tag, pair(_F_DOTMINUS, pair(node, const)))


def coding_g(p: int, q: int) -> int:
    """Code of (formula_p -. formula_q); both codes must share a signature."""
    decode_full(p)
    decode_full(q)
    tag_p, node_p = unpair(p)
    tag_q, node_q = unpair(q)
    if tag_p != tag_q:
        raise NotACode("operands coded over different signatures")
    return pair(tag_p, pair(_F_DOTMINUS, pair(node_p, node_q)))


@dataclass(frozen=True)
class CodeFlags:
    is_formula: bool
    is_sentence: bool
    is_qf: bool
    is_in_base_L: bool
    prefix_class: Optional[str]


def code_predicates(code: int) -> CodeFlags:
    """Decidable classification flags; non-codes get all-false flags."""
    try:
        formula = decode(code)
    except NotACode:
        return CodeFlags(False, False, False, False, None)
    sentence = not F.free_vars(formula)
    qf = F.is_quantifier_free(formula)
    base = not F.constants_of(formula)
    try:
        pc: Optional[str] = F.classify_prefix(formula)
    except F.NotPrenex:
        pc = None
    return CodeFlags(True, sentence, qf, base, pc)

