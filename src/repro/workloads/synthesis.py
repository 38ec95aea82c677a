"""Statistical instruction-trace synthesis.

Turns a :class:`~repro.workloads.spec.BenchmarkProfile` into a dynamic
instruction stream whose statistics match the profile:

* a static CFG skeleton of ``static_blocks`` basic blocks, each with a
  fixed op skeleton and a **branch personality** — most static branches
  are strongly biased one way (mispredicted rarely by a bimodal
  predictor), a profile-controlled minority are data-dependent coin
  flips — visited by a random walk, which yields realistic I-cache and
  branch-predictor behaviour;
* per-instruction operands drawn with geometric dependence distances
  over a recent-producer window, plus a set of long-lived "global"
  registers (stack/base pointers, loop invariants) that keep part of the
  register file live for long stretches;
* memory addresses split between sequential streams (one miss per cache
  line) and a three-tier locality model (hot 16KB / warm <=1MB / cold
  full working set) for the irregular component;
* optional two-phase modulation (compute-leaning vs memory-leaning),
  giving the within-benchmark time structure the masking traces need.

The generator is fully deterministic given a seed. It writes the
columns of an :class:`~repro.microarch.isa.InstructionTrace` directly;
the order of its random draws is part of that contract (see DESIGN.md,
"Trace production"), so a change to it changes every masking trace.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..microarch.isa import FP_REG_BASE, InstructionTrace, OpClass
from .spec import BenchmarkProfile

#: Long-lived integer registers (stack/frame/base pointers, globals):
#: written in a preamble, then read throughout, rarely rewritten.
_INT_GLOBALS = tuple(range(1, 9))
_FP_GLOBALS = tuple(range(FP_REG_BASE, FP_REG_BASE + 4))
#: Rotating destination pools for ordinary values.
_INT_DEST_POOL = tuple(range(9, 32))
_FP_DEST_POOL = tuple(range(FP_REG_BASE + 4, FP_REG_BASE + 32))

#: Probability a source operand reads a global instead of a recent value.
_GLOBAL_SRC_PROB = 0.20
#: Probability a biased branch deviates from its preferred direction.
_BRANCH_NOISE = 0.03
#: Control-flow locality: size of the hot loop set and the probability a
#: taken branch escapes it to a fresh code region.
_LOOP_SET_SIZE = 12
_LOOP_ESCAPE_PROB = 0.06
#: Three-tier locality of non-streaming memory accesses.
_HOT_BYTES = 16 * 1024
_WARM_BYTES = 1024 * 1024
_HOT_PROB = 0.75
_WARM_PROB = 0.18

#: Source-register counts per op-class code (branches read one).
_N_SRCS = (2, 2, 2, 2, 2, 2, 1, 2, 1)
_IS_FP = tuple(OpClass(code).is_fp for code in range(len(OpClass)))
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)


def _phase_mix(profile: BenchmarkProfile, phase: int) -> dict:
    """Mix for the given phase index (alternating modulation)."""
    if profile.phase_length <= 0 or profile.phase_intensity <= 0:
        return profile.mix
    # Even phases lean on memory, odd phases on compute.
    shift = profile.phase_intensity
    mix = dict(profile.mix)
    factor_mem = 1.0 + shift if phase % 2 == 0 else max(1.0 - shift, 0.05)
    for op in (OpClass.LOAD, OpClass.STORE):
        if op in mix:
            mix[op] = mix[op] * factor_mem
    return mix


def _mix_cdf(mix: dict) -> np.ndarray:
    """The normalised CDF ``Generator.choice(k, p=w)`` searches."""
    weights = np.asarray(list(mix.values()), dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def synthesize_trace(
    profile: BenchmarkProfile,
    n_instructions: int,
    seed: int = 0,
) -> InstructionTrace:
    """Generate a dynamic trace with the profile's statistics.

    Parameters
    ----------
    profile:
        Benchmark description (see :class:`BenchmarkProfile`).
    n_instructions:
        Length of the dynamic stream (the paper uses 1e8; tests and
        benchmarks use shorter windows — see DESIGN.md on why this is
        conservative for the reproduced claims).
    seed:
        Generator seed; identical inputs yield identical traces.
    """
    if n_instructions < 1:
        raise ConfigurationError(
            f"need at least one instruction, got {n_instructions}"
        )
    n = n_instructions
    rng = np.random.default_rng(seed)
    random = rng.random
    integers = rng.integers
    geometric = rng.geometric

    # Op classes are drawn as ``cdf.searchsorted(rng.random(k))``: the
    # exact draws of ``rng.choice(k, p=w)`` without its per-call checks.
    classes = np.asarray([int(op) for op in profile.mix], dtype=np.int64)
    base_cdf = _mix_cdf(profile.mix)
    phased = profile.phase_length > 0 and profile.phase_intensity > 0
    phase_cdfs = (
        _mix_cdf(_phase_mix(profile, 0)),
        _mix_cdf(_phase_mix(profile, 1)),
    )

    def draw_ops(cdf: np.ndarray, count: int) -> list[int]:
        return classes[cdf.searchsorted(random(count), side="right")].tolist()

    # Static skeleton: per block its op codes, base pc and personality.
    mean_block = max(1.0 / profile.branch_fraction - 1.0, 1.0)
    n_blocks = profile.static_blocks
    block_ops: list[list[int]] = []
    block_pc: list[int] = []
    block_taken: list[bool] = []
    block_random: list[bool] = []
    pc = 0x1000_0000
    for _ in range(n_blocks):
        size = int(geometric(1.0 / mean_block))
        size = max(1, min(size, 40))
        block_ops.append(draw_ops(base_cdf, size))
        block_random.append(random() < profile.random_branch_fraction)
        block_taken.append(bool(random() < profile.branch_taken_bias))
        block_pc.append(pc)
        pc += 4 * (size + 1)  # +1 for the terminating branch

    # Output columns; srcs is flat, three slots per instruction.
    op_col: list[int] = []
    dest_col: list[int] = []
    srcs_col: list[int] = []
    pc_col: list[int] = []
    mem_col: list[int] = []
    taken_col: list[bool] = []

    # Preamble: define the global registers so their long lives are real.
    pc = 0x0FFF_0000
    for reg in (*_INT_GLOBALS, *_FP_GLOBALS):
        op_col.append(
            int(OpClass.INT_ALU if reg < FP_REG_BASE else OpClass.FP_ADD)
        )
        dest_col.append(reg)
        srcs_col += (-1, -1, -1)
        pc_col.append(pc)
        mem_col.append(-1)
        taken_col.append(False)
        pc += 4

    recent_int = list(_INT_GLOBALS)
    recent_fp = list(_FP_GLOBALS)
    n_int_globals = len(_INT_GLOBALS)
    n_fp_globals = len(_FP_GLOBALS)
    n_int_pool = len(_INT_DEST_POOL)
    n_fp_pool = len(_FP_DEST_POOL)
    int_cursor = fp_cursor = 0
    stream_addr = 0x4000_0000
    dep_p = min(1.0 / profile.mean_dep_distance, 1.0)
    streaming = profile.streaming_fraction
    fp_load_prob = 0.5 if profile.suite == "fp" else 0.05
    working = max(profile.working_set_bytes, _HOT_BYTES)
    hot_span = min(working, _HOT_BYTES)
    warm_span = min(working, _WARM_BYTES)
    cold_span = working

    # Control flow visits a slowly rotating hot set of blocks (loops),
    # occasionally escaping to a fresh region — real programs spend most
    # of their time in small loop nests, which is what gives branch
    # predictors and I-caches their hit rates.
    loop_set = list(integers(0, n_blocks, size=_LOOP_SET_SIZE))
    block = loop_set[0]
    count = len(op_col)
    while count < n:
        pc = block_pc[block]
        ops = block_ops[block]
        if phased:
            # Resample this visit's ops under the phase mix, keeping the
            # block length (hence pcs and branch structure) fixed.
            phase = count // profile.phase_length
            ops = draw_ops(phase_cdfs[phase % 2], len(ops))
        for op in ops:
            if count >= n:
                break
            # Sources: a global, or a recent producer at a geometric
            # dependence distance.
            is_fp = _IS_FP[op]
            recent = recent_fp if is_fp else recent_int
            for _ in range(_N_SRCS[op]):
                if random() < _GLOBAL_SRC_PROB:
                    if is_fp:
                        srcs_col.append(_FP_GLOBALS[int(integers(n_fp_globals))])
                    else:
                        srcs_col.append(
                            _INT_GLOBALS[int(integers(n_int_globals))]
                        )
                else:
                    distance = min(int(geometric(dep_p)), len(recent))
                    srcs_col.append(recent[-distance])
            srcs_col += (-1,) * (3 - _N_SRCS[op])

            dest = -1
            if op == _LOAD:
                if random() < fp_load_prob:
                    dest = _FP_DEST_POOL[fp_cursor % n_fp_pool]
                    fp_cursor += 1
                else:
                    dest = _INT_DEST_POOL[int_cursor % n_int_pool]
                    int_cursor += 1
            elif op != _STORE:
                if is_fp:
                    dest = _FP_DEST_POOL[fp_cursor % n_fp_pool]
                    fp_cursor += 1
                else:
                    dest = _INT_DEST_POOL[int_cursor % n_int_pool]
                    int_cursor += 1

            mem_addr = -1
            if op == _LOAD or op == _STORE:
                if random() < streaming:
                    stream_addr = (stream_addr + 8) & 0x7FFF_FFFF
                    mem_addr = stream_addr
                else:
                    roll = random()
                    if roll < _HOT_PROB:
                        span = hot_span
                    elif roll < _HOT_PROB + _WARM_PROB:
                        span = warm_span
                    else:
                        span = cold_span
                    mem_addr = 0x4000_0000 + (int(integers(0, span)) & ~7)

            op_col.append(op)
            dest_col.append(dest)
            pc_col.append(pc)
            mem_col.append(mem_addr)
            taken_col.append(False)
            if dest >= FP_REG_BASE:
                recent_fp.append(dest)
                if len(recent_fp) > 64:
                    del recent_fp[:32]
            elif dest >= 0:
                recent_int.append(dest)
                if len(recent_int) > 64:
                    del recent_int[:32]
            count += 1
            pc += 4
        if count >= n:
            break

        # The block's terminating branch.
        if block_random[block]:
            taken = bool(random() < 0.5)
        else:
            taken = block_taken[block] != (random() < _BRANCH_NOISE)
        if random() < _GLOBAL_SRC_PROB:
            srcs_col.append(_INT_GLOBALS[int(integers(n_int_globals))])
        else:
            distance = min(int(geometric(dep_p)), len(recent_int))
            srcs_col.append(recent_int[-distance])
        srcs_col += (-1, -1)
        op_col.append(_BRANCH)
        dest_col.append(-1)
        pc_col.append(pc)
        mem_col.append(-1)
        taken_col.append(taken)
        count += 1

        if taken:
            if random() < _LOOP_ESCAPE_PROB:
                fresh = int(integers(n_blocks))
                loop_set[int(integers(_LOOP_SET_SIZE))] = fresh
                block = fresh
            else:
                block = loop_set[int(integers(_LOOP_SET_SIZE))]
        else:
            block = (block + 1) % n_blocks

    return InstructionTrace(
        op=np.array(op_col[:n], dtype=np.int8),
        dest=np.array(dest_col[:n], dtype=np.int16),
        srcs=np.array(srcs_col[: 3 * n], dtype=np.int16).reshape(-1, 3),
        pc=np.array(pc_col[:n], dtype=np.int64),
        mem_addr=np.array(mem_col[:n], dtype=np.int64),
        taken=np.array(taken_col[:n], dtype=bool),
    )
