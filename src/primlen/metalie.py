"""Free metabelian Lie algebra arithmetic with normal-form rewriting.

The commutator ideal of the free metabelian Lie algebra on x_1..x_d has a
vector-space basis of left-normed words

    [x_{i1}, x_{i2}, x_{i3}, ..., x_{in}],   i1 > i2 <= i3 <= ... <= i_n,

so an element is stored as a map from generators and normal words to
nonzero coefficients.  Brackets are rewritten into this basis with:

* alternation [a, a] = 0 and anti-symmetry on the inner pair;
* commuting ad-operators on the ideal (the tail may be sorted), because
  [[u, a], b] - [[u, b], a] = [u, [a, b]] = 0 for u in the ideal;
* the Jacobi rewrite [[a, b], c] = [[a, c], b] - [[b, c], a] whenever the
  second index is not minimal;
* [u, v] = 0 for u, v both in the ideal (the metabelian law).

Since the second index of a normal word is its minimum, bracketing a
normal word with a generator produces one normal word (tail insertion) or
two (one Jacobi step), so rewriting terminates immediately.

Words are rewritten on ints: ``bracket``, ``normalize_word`` and
``apply_endo`` share one rewrite loop over maps from words to the ints of
``FieldDescriptor.to_raw`` (over Q numerators over a common denominator,
over GF(p) residues, reduced mod p at every step).  FieldScalar appears
only at the boundary: the terms an operation reads and the element it
returns, built once with ``_wrap_raw``.  ``apply_endo`` and
``inner_auto`` wrap raw cores (``_apply_endo_raw``, ``_inner_raw``) that
take and return (den, raw) pairs; the certificate replay
(``polyauto.replay_raw``) calls those cores directly.

Results never exceed the degree cap ``DEGREE_CAP`` (12), an input
ceiling like the others; a bracket that would is reported as an error
instead of silently exploding.
"""

from __future__ import annotations

from bisect import insort

from .errors import ArityMismatchError, DegreeCapError, FieldMismatchError
from .sparse import SparseElement, combine_raw

#: The longest word any Lie computation may produce.
DEGREE_CAP = 12


def is_normal_word(word):
    if len(word) == 1:
        return True
    if word[0] <= word[1]:
        return False
    return all(a <= b for a, b in zip(word[1:], word[2:]))


def _ad_normal(word, j):
    """[word, x_j] for a normal word of length >= 2, as (normal word, sign) pairs."""
    i1, i2 = word[0], word[1]
    tail = list(word[2:])
    if j >= i2:
        insort(tail, j)
        return (((i1, i2) + tuple(tail), 1),)
    first = list(tail)
    insort(first, i2)
    second = list(tail)
    insort(second, i1)
    return (
        ((i1, j) + tuple(first), 1),
        ((i2, j) + tuple(second), -1),
    )


class LieElement(SparseElement):
    """Immutable element of the free metabelian Lie algebra on d generators."""

    __slots__ = ()

    @staticmethod
    def _key(arity, word):
        word = tuple(word)
        if not word or any(not 1 <= i <= arity for i in word):
            raise ArityMismatchError(f"word {word} has an index outside 1..{arity}")
        if not is_normal_word(word):
            raise ValueError(f"word {word} is not in normal form")
        return word

    @classmethod
    def generator(cls, arity, field, index):
        if not 1 <= index <= arity:
            raise ArityMismatchError(f"generator x{index} out of range for arity {arity}")
        return cls(arity, field, {(index,): field.one()})

    def degree(self):
        """Maximal word length, or None for the zero element."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def homogeneous_component(self, m):
        return self._wrap({w: c for w, c in self.terms.items() if len(w) == m})

    def has_linear_part(self):
        return any(len(w) == 1 for w in self.terms)

    def mentioned(self):
        """The indices of the generators that occur in a stored word."""
        return {i for w in self.terms for i in w}

    def substitute(self, images):
        """The image of self under the endomorphism x_i -> images[i - 1]."""
        return apply_endo(images, self)

    def _endo_raw(self, raw, images):
        """The (den, raw) image of the pair raw under the (den, raw) generator images, within the cap."""
        return _apply_endo_raw(raw, images, self.field.p)

    @staticmethod
    def _generator_key(arity, index):
        return (index,)

    @staticmethod
    def _constant_key(arity):
        raise ValueError("a Lie element has no constant term")

    def iter_sorted(self):
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            yield word, self.terms[word]

    def __repr__(self):
        from .parsing import lie_to_str

        return f"LieElement({self.arity}, {self.field!r}, {lie_to_str(self)!r})"


def _bracket_raw(tu, tv, p):
    """[u, v] on raw coefficient maps (normal word -> int).

    ``tu`` and ``tv`` hold ints in the layout of ``FieldDescriptor.to_raw``
    and so does the result; ``p`` is the field's characteristic, None over
    Q.  A coefficient is reduced mod p and dropped when it reaches zero, so
    a word whose coefficient cancels never reaches the degree cap.
    """
    terms = {}
    for wu, cu in tu.items():
        nu = len(wu)
        for wv, cv in tv.items():
            nv = len(wv)
            if nu >= 2 and nv >= 2:
                continue
            if nu + nv > DEGREE_CAP:
                raise DegreeCapError(
                    f"bracket would reach degree {nu + nv} beyond the cap {DEGREE_CAP}"
                )
            coeff = cu * cv
            if nu == 1 and nv == 1:
                a, b = wu[0], wv[0]
                if a == b:
                    continue
                pieces = (((a, b), 1),) if a > b else (((b, a), -1),)
            elif nv == 1:
                pieces = _ad_normal(wu, wv[0])
            else:
                pieces = _ad_normal(wv, wu[0])
                coeff = -coeff
            for word, sign in pieces:
                s = terms.get(word, 0) + sign * coeff
                if p is not None:
                    s %= p
                if s:
                    terms[word] = s
                else:
                    terms.pop(word, None)
    return terms


def bracket(u, v):
    """The Lie bracket [u, v], rewritten into the normal-word basis."""
    u._check_compatible(v)
    den_u, tu = u._raw()
    den_v, tv = v._raw()
    return u._wrap_raw(den_u * den_v, _bracket_raw(tu, tv, u.field.p))


def normalize_word(indices, arity, field):
    """The left-normed bracket [x_{i1}, ..., x_{in}] as a normal-form element."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("empty bracket word")
    if len(indices) > DEGREE_CAP:
        raise DegreeCapError(f"word length {len(indices)} beyond the cap {DEGREE_CAP}")
    for idx in indices:
        if not 1 <= idx <= arity:
            raise ArityMismatchError(f"generator x{idx} out of range for arity {arity}")
    if is_normal_word(indices):
        return LieElement._new(arity, field, {indices: field.one()})
    return LieElement._new(arity, field, {})._wrap_raw(1, _normalize_raw(indices, field.p))


def _normalize_raw(indices, p):
    """The normal terms of the word ``indices``, a tuple, as a map to ints.

    The left-normed bracket of generators has integer coefficients, so
    this is the (1, raw) pair of ``normalize_word``, residues over GF(p)
    (``p`` not None); nothing is checked.
    """
    terms = {indices[:1]: 1}
    for idx in indices[1:]:
        terms = _bracket_raw(terms, {(idx,): 1}, p)
    return terms


def _apply_endo_raw(u, images, p):
    """The (den, raw) pair of u under x_i -> images[i - 1], everything on ints.

    u and every image are (den, raw) pairs over normal words.  The bracket
    of the images along a word has the product of their denominators; the
    coefficient-weighted sum of the words' pieces is taken over the least
    common multiple of those (``sparse.combine_raw``).
    """
    den, terms = u
    pieces = []
    for word in terms:
        piece_den, piece = images[word[0] - 1]
        for idx in word[1:]:
            img_den, img = images[idx - 1]
            piece = _bracket_raw(piece, img, p)
            piece_den *= img_den
        pieces.append((piece_den, piece))
    return combine_raw(den, terms.values(), pieces, p)


def apply_endo(images, u):
    """Homomorphic image of u under x_i -> images[i - 1]: brackets are rebuilt from the images.

    There must be one image per generator of u, each with the arity and
    field of u.  Each image is read once with ``to_raw``,
    ``_apply_endo_raw`` does the rest on ints, and scalars are built once,
    for the result.
    """
    d, field = u.arity, u.field
    if len(images) != d:
        raise ArityMismatchError("endomorphism arity mismatch")
    for g in images:
        if g.arity != d:
            raise ArityMismatchError("endomorphism arity mismatch")
        if g.field != field:
            raise FieldMismatchError("endomorphism and element over different fields")
    return u._wrap_raw(*_apply_endo_raw(u._raw(), [g._raw() for g in images], field.p))


def _inner_raw(v, arity, p):
    """The (den, raw) images x_j -> x_j + [x_j, v] of exp(ad v), for v a (den, raw) pair."""
    den, tv = v
    images = []
    for j in range(1, arity + 1):
        image = _bracket_raw({(j,): 1}, tv, p)
        image[(j,)] = den
        images.append((den, image))
    return images


def inner_auto(v):
    """The generator images of exp(ad v): x_j -> x_j + [x_j, v], for v in the commutator ideal.

    In the metabelian quotient (ad v)^2 vanishes on the whole algebra, so
    the exponential series is exactly 1 + ad v and composing with
    inner_auto(-v) restores every generator.
    """
    if v.has_linear_part():
        raise ValueError("inner automorphisms need an element of the commutator ideal")
    return [v._wrap_raw(*image) for image in _inner_raw(v._raw(), v.arity, v.field.p)]


def split_parts(u):
    """Split u into (linear, words containing x_1, words avoiding x_1).

    A normal word contains x_1 exactly when its second index is 1, because
    the second index of a normal word is the minimum of all its indices.
    """
    linear, with_x1, without_x1 = {}, {}, {}
    for word, coeff in u.terms.items():
        if len(word) == 1:
            linear[word] = coeff
        elif word[1] == 1:
            with_x1[word] = coeff
        else:
            without_x1[word] = coeff
    return u._wrap(linear), u._wrap(with_x1), u._wrap(without_x1)
