"""Line-at-a-time BLIF reader: the reference the tests compare against.

This is the reader :func:`stpsweep.netlist.parse_blif` replaced.  It
walks the text one logical line at a time, keeps each cover row as a
tuple, and turns a block's rows into a truth row in a second pass over
them.  The package reads the same subset one ``.names`` block at a
time; the tests require both to return the same network, or to raise
a :class:`~stpsweep.NetlistError` with the same message, on every input.
"""

from __future__ import annotations

from itertools import chain

from stpsweep.netlist import MAX_BLIF_FANINS, NetlistError, Network, _build_in_order


def _blif_logical_lines(text: str):
    """Yield (line_number, tokens) with comments and continuations handled."""
    pending: list[str] = []
    pending_no = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        if not pending and "#" not in raw and "\\" not in raw:
            # No comment and no continuation: the common line.
            tokens = raw.split()
            if tokens:
                yield no, tokens
            continue
        line = raw.split("#", 1)[0].rstrip()
        cont = line.endswith("\\")
        if cont:
            line = line[:-1]
        if not pending:
            pending_no = no
        pending.append(line)
        if cont:
            continue
        joined = " ".join(pending).strip()
        pending = []
        if joined:
            yield pending_no, joined.split()
    if pending and any(s.strip() for s in pending):
        yield pending_no, " ".join(pending).split()


def _cover_to_tt(covers: list[tuple[int, str, str]], arity: int) -> int:
    """Convert BLIF single-output cover rows to a truth-row integer."""
    if not covers:
        return 0
    out_vals = {val for _, _, val in covers}
    if len(out_vals) != 1:
        line = covers[0][0]
        raise NetlistError(f"line {line}: mixed cover output values")
    acc = 0
    full = (1 << (1 << arity)) - 1
    for line, ins, _ in covers:
        if not ins.strip("01"):
            # ASCII 0/1 only, so ``int`` reads the row's one minterm; an
            # arity-0 row is minterm 0.
            acc |= 1 << int(ins or "0", 2)
            continue
        bad = [c for c in ins if c not in "01-"]
        if bad:
            raise NetlistError(f"line {line}: bad cover character {bad[0]!r}")
        minterms = [int(ins.replace("-", "0"), 2)]
        for j, c in enumerate(ins):
            if c == "-":
                bit = 1 << (arity - 1 - j)
                minterms += [v | bit for v in minterms]
        for v in minterms:
            acc |= 1 << v
    return acc if out_vals == {"1"} else acc ^ full


def parse_blif(text: str) -> Network:
    """Parse the supported BLIF subset into a network.

    A cover row's inputs are the ASCII characters ``0``, ``1`` and
    ``-`` only; any other character, even one that ``int`` reads as a
    digit, is a ``bad cover character``.  PIs take the first ids, in
    ``.inputs`` order.  The ``.names`` blocks then get theirs by
    :func:`_build_in_order` with the blocks in file order as roots.
    """
    model = "net"
    inputs: list[str] = []
    outputs: list[str] = []
    defs: dict[str, tuple[int, list[str], int]] = {}
    offset_buffers: set[str] = set()  # blocks of one row, ``0 0``: a PO alias's form
    rows: list[tuple[int, str, str]] | None = None  # of the open .names block
    arity = 0

    # An appended ``.end`` closes the last block of a file that has none.
    for no, tokens in chain(_blif_logical_lines(text), [(0, [".end"])]):
        cmd = tokens[0]
        if cmd[0] != ".":
            if rows is None:
                raise NetlistError(f"line {no}: cover row outside .names")
            if arity == 0:
                if len(tokens) != 1 or cmd not in ("0", "1"):
                    raise NetlistError(f"line {no}: bad constant cover row")
                rows.append((no, "", cmd))
            elif len(tokens) != 2 or len(cmd) != arity or tokens[1] not in ("0", "1"):
                raise NetlistError(f"line {no}: malformed cover row")
            else:
                rows.append((no, cmd, tokens[1]))
            continue
        if rows is not None:
            defs[out_name] = (names_no, fanin_names, _cover_to_tt(rows, arity))
            if arity == 1 and [r[1:] for r in rows] == [("0", "0")]:
                offset_buffers.add(out_name)
            rows = None
        if cmd == ".names":
            if len(tokens) < 2:
                raise NetlistError(f"line {no}: .names needs an output")
            fanin_names, out_name = tokens[1:-1], tokens[-1]
            if len(fanin_names) > MAX_BLIF_FANINS:
                raise NetlistError(
                    f"line {no}: node {out_name!r} has {len(fanin_names)} fanins, "
                    f"limit is {MAX_BLIF_FANINS}")
            if out_name in defs:
                raise NetlistError(f"line {no}: {out_name!r} defined twice")
            rows = []
            arity = len(fanin_names)
            names_no = no
        elif cmd == ".model":
            model = tokens[1] if len(tokens) > 1 else model
        elif cmd == ".inputs":
            inputs.extend(tokens[1:])
        elif cmd == ".outputs":
            outputs.extend(tokens[1:])
        elif cmd == ".end":
            break
        else:
            raise NetlistError(f"line {no}: unsupported construct {cmd!r}")

    net = Network(model)
    for name in inputs:
        if name in net.names:
            raise NetlistError(f"duplicate input {name!r}")
        if name in defs:
            raise NetlistError(f"input {name!r} also defined by .names")
        net.add_pi(name)

    # A PO's buffer in off-set form (``0 0``), as ``write_blif`` writes
    # for a PO whose driver a PI or another PO names, is an alias of its
    # input, not a LUT, unless another signal reads it.
    alias = {name: defs[name][1][0] for name in outputs if name in offset_buffers}
    if alias:
        read = {f for _, fanin_names, _ in defs.values() for f in fanin_names}
        alias = {name: source for name, source in alias.items() if name not in read}
        for name in alias:
            del defs[name]
    _build_in_order(net, defs, net.names, defs)
    for name in outputs:
        source = alias.get(name, name)
        if source not in net.names:
            raise NetlistError(f"output {name!r} is never defined")
        net.names.setdefault(name, net.names[source])
        net.add_po(net.names[source], name=name)
    return net
