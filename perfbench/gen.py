"""Seeded inputs for the benchmark: record files and `.arch` sources.

Everything here is a pure function of its arguments and the seed, so the
same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import random
import string

_ALPHABET = (string.ascii_letters + string.digits).encode()
_BATCH = 1 << 16


def write_records(path: str, seed: int, count: int, lo: int, hi: int) -> int:
    """Write `count` distinct records of lo..hi bytes (newline included).

    Each record is its sequence number in hex followed by a body drawn
    from a seeded pool, so the file is a function of the arguments alone.
    Returns the number of bytes written.
    """
    rng = random.Random(seed)
    pool = [
        bytes(rng.choices(_ALPHABET, k=rng.randint(lo, hi) - 9)) + b"\n" for _ in range(4096)
    ]
    written = 0
    with open(path, "wb") as out:
        for start in range(0, count, _BATCH):
            picks = rng.choices(pool, k=min(_BATCH, count - start))
            chunk = b"".join(b"%07x " % (start + i) + body for i, body in enumerate(picks))
            out.write(chunk)
            written += len(chunk)
    return written


def linear_arch(n_stages: int, impl: str, inp: str, out: str, replicas: int = 1) -> str:
    """A pipeline of `n_stages` copies of `impl`; the middle one may be replicated."""
    decls = []
    for i in range(n_stages):
        attrs = f" stateless replicas {replicas}" if replicas > 1 and i == n_stages // 2 else ""
        decls.append(f'  component S{i} : Filter impl "{impl}"{attrs};\n')
    chain = " | ".join(f"S{i}()" for i in range(n_stages))
    return (
        "system Linear {\n" + "".join(decls)
        + f"  pipeline Main: input | {chain} | output;\n"
        + f'  input "{inp}";\n  output "{out}";\n}}\n'
    )


def diamond_arch(inp: str, out: str) -> str:
    """`cat IN` forks (a tee) to two `cat`s that join (a merge) into a copy to OUT."""
    return f"""system Diamond {{
  componenttype Fan {{ port stdin : StreamIn; port stdout : StreamOut many; }}
  componenttype Funnel {{ port stdin : StreamIn many; port stdout : StreamOut; }}
  component A : Fan impl "cat {inp}";
  component B : Filter impl "cat";
  component C : Filter impl "cat";
  component D : Funnel impl "cp /dev/stdin {out}";
  connector p1 : Pipe; connector p2 : Pipe;
  connector p3 : Pipe; connector p4 : Pipe;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach A.stdout to p2.source; attach C.stdin to p2.sink;
  attach B.stdout to p3.source; attach D.stdin to p3.sink;
  attach C.stdout to p4.source; attach D.stdin to p4.sink;
}}
"""


COUNTDOWN = """\
import signal, sys
signal.signal(signal.SIGPIPE, signal.SIG_DFL)
seen = 0
last = None
for line in sys.stdin.buffer:
    n = int(line)
    seen += 1
    last = n
    if n <= 1:
        break
    sys.stdout.buffer.write(b"%d\\n" % (n - 1))
    sys.stdout.buffer.flush()
with open(sys.argv[1], "w") as side:
    side.write("%d %s\\n" % (seen, last))
"""


def cycle_arch(python: str, script: str, side: str, laps: int) -> str:
    """A countdown filter and `cat` in a loop, primed with `laps`."""
    return f"""system Cycle {{
  component A : Filter impl "{python} {script} {side}" seed "{laps}\\n";
  component B : Filter impl "cat";
  connector p1 : Pipe; connector p2 : Pipe;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach B.stdout to p2.source; attach A.stdin to p2.sink;
}}
"""


_TYPES = """  componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }
  componenttype Funnel { port stdin : StreamIn many; port stdout : StreamOut; }
  componenttype Client { port call : RpcCall; }
  componenttype Server { port answer : RpcDef; }
  componenttype Reporter { port wire : EventEmit; }
  componenttype Desk { port wire : EventRecv; }
"""


def _mixed_layout(n_stages: int) -> tuple[int, int]:
    """(pipeline chain length, number of 9-instance units) of mixed_arch."""
    chain_len = max(n_stages // 10, 3)
    units, extra = divmod(n_stages - chain_len, 9)
    return chain_len + extra, units


def mixed_plan_stages(n_stages: int) -> int:
    """Stages in the plan of mixed_arch(n_stages): every instance, the 3
    extra replicas with their split and merge, and a tee and a merge per
    diamond."""
    return n_stages + 5 + 2 * _mixed_layout(n_stages)[1]


def mixed_arch(n_stages: int, seed: int) -> str:
    """A mixed system of exactly `n_stages` component instances.

    A tenth of the stages form one pipeline chain with a replicated stage;
    the rest are units of a fork/join diamond (4), an RPC caller/definer
    pair (2) and an event announcer with two listeners (3).  The seed
    shuffles declaration order, which `resolve` must not care about.
    """
    rng = random.Random(seed)
    chain_len, units = _mixed_layout(n_stages)
    decls = []
    for i in range(chain_len):
        attrs = " stateless replicas 4" if i == chain_len // 2 else ""
        decls.append(f'  component K{i} : Filter impl "cat"{attrs};\n')
    for u in range(units):
        decls += [
            f'  component F{u} : Fan impl "cat";\n',
            f'  component L{u} : Filter impl "cat";\n',
            f'  component R{u} : Filter impl "cat";\n',
            f'  component J{u} : Funnel impl "cat";\n',
            f"  connector f{u}a : Pipe; connector f{u}b : Pipe;\n",
            f"  connector j{u}a : Pipe; connector j{u}b : Pipe;\n",
            f"  attach F{u}.stdout to f{u}a.source; attach L{u}.stdin to f{u}a.sink;\n",
            f"  attach F{u}.stdout to f{u}b.source; attach R{u}.stdin to f{u}b.sink;\n",
            f"  attach L{u}.stdout to j{u}a.source; attach J{u}.stdin to j{u}a.sink;\n",
            f"  attach R{u}.stdout to j{u}b.source; attach J{u}.stdin to j{u}b.sink;\n",
            f'  component C{u} : Client impl "cat";\n',
            f'  component S{u} : Server impl "cat";\n',
            f"  connector r{u} : RPC;\n",
            f"  attach C{u}.call to r{u}.caller; attach S{u}.answer to r{u}.definer;\n",
            f'  component P{u} : Reporter impl "cat";\n',
            f'  component Q{u} : Desk impl "cat";\n',
            f'  component T{u} : Desk impl "cat";\n',
            f"  connector e{u} : Event;\n",
            f"  attach P{u}.wire to e{u}.announcer;\n",
            f"  attach Q{u}.wire to e{u}.listener; attach T{u}.wire to e{u}.listener;\n",
        ]
    rng.shuffle(decls)
    chain = " | ".join(f"K{i}()" for i in range(chain_len))
    return (
        f"system Mixed{n_stages} {{\n{_TYPES}" + "".join(decls)
        + f"  pipeline Main: input | {chain} | output;\n"
        + '  input "in.txt";\n  output "out.txt";\n}\n'
    )
