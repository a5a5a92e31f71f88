"""Seeded mutation fuzzing of the four text parsers.

Each parser gets about 3,000 inputs: texts emitted for n = 0..11, each
changed by 1-3 single-character edits (a flipped bit, an inserted character
or a deleted one).  Every input must either raise a WidthlabError, or parse
to an object whose emitted text parses back equal and emits the same text
again.  Any other exception, or an input slower than the per-input limit,
fails the test and names the input.
"""

import signal
import time

import pytest

from widthlab import (
    SplitMix64,
    WidthlabError,
    emit_edge_list,
    emit_graph6,
    emit_tree,
    format_matrix_text,
    parse_edge_list,
    parse_graph6,
    parse_matrix_text,
    parse_tree,
    rankwidth,
    sample_gnp_half,
    sample_matrix,
)

PER_N = 250  # mutated inputs per n and parser: 12 * 250 = 3,000 per parser
BASES = 5  # emitted texts per n, mutated in turn
INPUT_LIMIT_S = 0.25
TOTAL_LIMIT_S = 5.0


def _graph6_text(n, seed):
    return emit_graph6(sample_gnp_half(n, seed))


def _edge_list_text(n, seed):
    return emit_edge_list(sample_gnp_half(n, seed))


def _tree_text(n, seed):
    return emit_tree(rankwidth(sample_gnp_half(n, seed)).witness_tree)


def _matrix_text(n, seed):
    return format_matrix_text(sample_matrix(n, seed % 12, seed))


FORMATS = {
    "graph6": (_graph6_text, parse_graph6, emit_graph6),
    "edges": (_edge_list_text, parse_edge_list, emit_edge_list),
    "tree": (_tree_text, parse_tree, emit_tree),
    "matrix": (_matrix_text, parse_matrix_text, format_matrix_text),
}


def _mutate(text, rng):
    """text with 1-3 edits: flip one of a character's low 7 bits, insert, or delete."""
    chars = list(text)
    for _ in range(1 + rng.randbelow(3)):
        op = rng.randbelow(3) if chars else 1
        if op == 0:
            i = rng.randbelow(len(chars))
            chars[i] = chr(ord(chars[i]) ^ (1 << rng.randbelow(7)))
        elif op == 1:
            # half the insertions reuse a character of the text, to keep its shape
            new = chars[rng.randbelow(len(chars))] if chars and rng.next_bits(1) else None
            chars.insert(rng.randbelow(len(chars) + 1), new or chr(rng.randbelow(128)))
        else:
            del chars[rng.randbelow(len(chars))]
    return "".join(chars)


def _inputs(make, seed):
    rng = SplitMix64(seed)
    for n in range(12):
        bases = [make(n, rng.next_word() % 2**32) for _ in range(BASES)]
        for i in range(PER_N):
            yield _mutate(bases[i % BASES], rng)


def _round_trip(parse, emit, text):
    """None if parse rejects text; else the object, its text and that text parsed."""
    try:
        obj = parse(text)
    except WidthlabError:
        return None
    out = emit(obj)
    return obj, out, parse(out)


class _Slow(Exception):
    pass


def _expire(signum, frame):
    raise _Slow


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_mutated_text_is_rejected_or_round_trips(fmt):
    make, parse, emit = FORMATS[fmt]
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    try:
        for text in _inputs(make, seed=0xF022):
            signal.setitimer(signal.ITIMER_REAL, INPUT_LIMIT_S)
            try:
                result = _round_trip(parse, emit, text)
            except _Slow:
                pytest.fail(f"{fmt} took over {INPUT_LIMIT_S} s on {text!r}")
            except Exception as exc:
                pytest.fail(f"{fmt} raised {exc!r} on {text!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if result:
                obj, out, again = result
                assert again == obj and emit(again) == out, text
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < TOTAL_LIMIT_S
