"""Reference computations that share no code with the package under test.

Everything here follows from the definition of the 3n+1 map alone:

* parity_walk_resolves(r, depth) walks a member of the residue class
  r mod 2^depth step by step.  By Terras' observation the O/E steps up to
  the depth-th halving are the same for every member r + 2^depth*k, so the
  walk decides whether the class descends (2^E > 3^O) within that many
  halvings.
* count_parity_words(depth) enumerates the same parity words depth-first,
  without any residue, and counts the descending ones and the ones still
  undecided after depth halvings.
* descent_steps(n) is the plain step loop down to the first value below n.
"""

from __future__ import annotations


def parity_walk_resolves(r: int, depth: int) -> bool:
    """True if every n = r (mod 2^depth) provably descends within depth halvings."""
    v = (r % (1 << depth)) + (1 << depth)  # a member above 1, same parities as r
    p3 = 1  # 3^(O steps so far)
    p2 = 1  # 2^(E steps so far)
    e_steps = 0
    while True:
        if v & 1:
            v = 3 * v + 1
            p3 *= 3
        else:
            v >>= 1
            p2 <<= 1
            e_steps += 1
            if p2 > p3:
                return True
            if e_steps == depth:
                return False


def count_parity_words(depth: int) -> tuple[int, int]:
    """(descending words, undecided words) among O/E words with at most depth E steps.

    A word stops as soon as 2^E > 3^O (a minimal descent) or when it
    holds depth E steps without descending; an O is always followed by
    an E.  The first count includes the one-letter word "E".
    """
    descending = 1  # "E"
    undecided = 0
    stack = [(0, 3, 1)]  # after the first "O": (E steps, 3^O, 2^E)
    while stack:
        e, p3, p2 = stack.pop()
        # forced E after the O
        e += 1
        p2 <<= 1
        while True:
            if p2 > p3:
                descending += 1
                break
            if e == depth:
                undecided += 1
                break
            stack.append((e, p3 * 3, p2))  # branch: O next
            e += 1  # branch: E next
            p2 <<= 1
    return descending, undecided


def descent_steps(n: int, cap: int = 100_000) -> tuple[str, int]:
    """(O/E word, first value below n) of n's first descent, by direct simulation."""
    v = n
    word = []
    while True:
        if v & 1:
            v = 3 * v + 1
            word.append("O")
        else:
            v >>= 1
            word.append("E")
        if v < n:
            return "".join(word), v
        if len(word) >= cap:
            raise RuntimeError(f"{n} did not descend within {cap} steps")


def running_maxima(lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, descent length) each time the length sets a new maximum over [lo, hi]."""
    out = []
    best = 0
    for n in range(lo, hi + 1):
        v = n
        steps = 0
        while True:
            v = 3 * v + 1 if v & 1 else v >> 1
            steps += 1
            if v < n:
                break
        if steps > best:
            best = steps
            out.append((n, steps))
    return out
