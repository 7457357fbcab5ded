"""tools/hash_outputs.py's output-by-output comparison, on small in-memory
outputs: the whole tool hashes every group and takes about a minute."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "hash_outputs.py"
_spec = importlib.util.spec_from_file_location("hash_outputs", _TOOL)
hash_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hash_outputs)


class _Peer:
    """A connection that recv()s what another tree's groups sent."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        return self.sent.pop(0)


def _add(g, items):
    """g.add of one output, a tuple of items whose last, when it is a dict,
    holds items by kind."""
    if items and isinstance(items[-1], dict):
        g.add(*items[:-1], **items[-1])
    else:
        g.add(*items)


def _hash(outputs, name="loss", peer=None):
    """A group of outputs, each a tuple of items (_add); its outputs and
    its line go to peer when given."""
    g = hash_outputs._Group(name, send=None if peer is None else peer.send)
    for items in outputs:
        _add(g, items)
    if peer is not None:
        peer.send(("end", g.line()))
    return g


def _compared(mine, theirs, name="loss"):
    """The group of outputs mine, compared with the group of theirs."""
    peer = _Peer()
    _hash(theirs, name, peer)
    g = hash_outputs._Group(name, peer=peer)
    for items in mine:
        _add(g, items)
    g.close()
    assert not peer.sent
    return g


_OUTPUTS = [("single", "tversky", False, 0.25,
             np.array([1.0, -2.0, 0.0], np.float32)),
            ("mixed", 3, b"bytes", np.arange(4)),
            ("text", "recall=0.5")]


def test_same_outputs_differ_nowhere(capsys):
    g = _compared(_OUTPUTS, _OUTPUTS)
    assert (g.differ, g.worst, g.theirs) == (0, {"other": 0.0}, g.line())
    assert hash_outputs._verdict([g], "a", "b") == 0
    assert hash_outputs._verdict([g], "a", "b", ["loss"]) == 1
    assert "0 of 1 groups differ" in capsys.readouterr().out


def test_moved_outputs_are_counted_with_their_largest_relative_difference(capsys):
    theirs = list(_OUTPUTS)
    theirs[0] = theirs[0][:3] + (0.25 * (1 + 2 ** -52),
                                 np.array([1.0, -2.0, -0.0], np.float32))
    theirs[2] = ("text", "recall=0.6")
    g = _compared(_OUTPUTS, theirs)
    assert g.differ == 2 and g.worst == {"other": pytest.approx(2 ** -52, rel=1e-6)}
    assert g.theirs != g.line()
    other = _compared(_OUTPUTS, _OUTPUTS, "train")
    assert hash_outputs._verdict([g, other], "a", "b", ["loss"]) == 0
    assert hash_outputs._verdict([g, other], "a", "b") == 1
    assert hash_outputs._verdict([g, other], "a", "b", ["loss", "train"]) == 1
    out = capsys.readouterr().out
    assert "differs: loss" in out and "differs: train" not in out
    assert "2 of 3 outputs differ, largest relative difference: other 2.22e-16" in out
    assert "expected to move: loss train; moved: loss" in out


def test_a_zero_sign_or_a_shape_is_a_difference():
    sign = _compared([(np.array([0.0]),)], [(np.array([-0.0]),)])
    assert (sign.differ, sign.worst) == (1, {"other": 0.0})
    shape = _compared([(np.zeros(2),)], [(np.zeros(3),)])
    assert (shape.differ, shape.worst) == (1, {"other": np.inf})
    nan = _compared([(np.array([np.nan, 1.0]),)], [(np.array([np.nan, np.inf]),)])
    assert (nan.differ, nan.worst) == (1, {"other": np.inf})


def test_each_kind_reads_its_own_largest_relative_difference(capsys):
    """One grad_check error that moved does not hide that no loss value or
    gradient did: each kind the group adds reads its own largest
    difference, 0 where none of its entries moved."""
    def outputs(error):
        return [("tversky", {"value": 0.25,
                             "gradient": [np.array([1.0, -2.0], np.float32)]}),
                ("tversky", 6, {"error": error}),
                ("text", "recall=0.5")]

    g = _compared(outputs(0.5), outputs(0.5 * (1 - 0.166)), "degenerate")
    assert g.differ == 1
    assert g.worst == {"value": 0.0, "gradient": 0.0,
                       "error": pytest.approx(0.166)}
    assert hash_outputs._verdict([g], "a", "b") == 1
    assert ("1 of 3 outputs differ, largest relative difference: value 0, "
            "gradient 0, error 0.166") in capsys.readouterr().out
    text = _compared([("text", "recall=0.5")], [("text", "recall=0.6")])
    assert (text.differ, text.worst) == (1, {})


@pytest.mark.parametrize("cut", [1, 2])
def test_outputs_missing_on_either_side_differ(cut):
    fewer = _compared(_OUTPUTS[:cut], _OUTPUTS)
    more = _compared(_OUTPUTS, _OUTPUTS[:cut])
    assert fewer.differ == more.differ == len(_OUTPUTS) - cut
    assert fewer.line() != fewer.theirs and more.line() != more.theirs


def test_hashes_are_unchanged_by_the_comparison():
    # the line of a group is the digest of its items' encodings: arrays
    # with dtype and shape, floats by their hex, others by repr
    ids = np.arange(3, dtype=np.int32)
    g = _hash([(ids, 0.5, "x", b"y")])
    h = hashlib.sha256()
    for x in (ids.dtype.str.encode() + b"(3,)" + ids.tobytes(),
              b"0x1.0000000000000p-1", b"'x'", b"y"):
        h.update(len(x).to_bytes(8, "little") + x)
    assert g.line() == f"loss 1 {h.hexdigest()}"
    # an item's kind is not hashed: the keyword items follow the others
    assert _hash([(ids, 0.5, {"value": "x", "gradient": [b"y"]})]).line() == g.line()


def test_a_peer_that_ends_early_leaves_an_empty_line():
    class Ended:
        def recv(self):
            raise EOFError

    g = hash_outputs._Group("loss", peer=Ended())
    for items in _OUTPUTS:
        g.add(*items)
    g.close()
    assert (g.differ, g.theirs) == (len(_OUTPUTS), "")
