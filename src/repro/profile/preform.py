"""Profile-guided superblock preformation: layer 4 of MPROF.

The dynamic chainer (:mod:`repro.cpu.tcache`) builds superblocks
reactively — a block is compiled the first time it is dispatched and a
chain link installed the first time its exit is traversed, so a hot mram
loop pays compile+relink latency on its first trip around.  This module
closes the loop the other way: given the MAS results a
:class:`~repro.metal.loader.MetalImage` already carries, it *preforms*
the blocks of analysis-proven ``pure_dispatch`` routines at image-load
time and seeds their chain links, so the first delivery of a hot
mroutine runs on warm superblocks.

Policy/mechanism split:

* **policy** (here): which mram byte offsets are worth preforming —
  routine entries and CFG block leaders of ``pure_dispatch`` routines,
  with CFG loop heads (back-edge targets) first since they anchor the
  hot superblocks.  A recorded hot-trace profile (a
  :class:`~repro.profile.sink.TraceEventSink` or the ``(ns, head_pc)``
  table from a previous run) narrows the plan to routines that were
  actually hot.
* **mechanism** (:meth:`TranslationCache.preform_mram`): compile through
  the ordinary block compiler and install links only through the same
  validated ``link``/``link_pc`` slots the dynamic chainer uses, so
  preformation can change performance but never architectural state.

Correctness containment: preformed blocks are bit-identical to the ones
dynamic dispatch would compile at the same pcs (the compiler is a pure
function of pc + code bytes), and every chain traversal re-validates the
link against the observed next pc.  ``tests/test_profile.py`` runs the
lockstep differential to hold this.
"""

from __future__ import annotations


def plan_preform(image, profile=None, only_pure: bool = True) -> list:
    """The mram byte offsets worth preforming for *image*.

    Offsets cover routine entries plus every CFG block leader of each
    eligible routine, ordered loop-heads-first.  Eligible routines are
    the ``pure_dispatch`` ones (pass ``only_pure=False`` to preform
    everything MAS analysed).  *profile* optionally narrows the plan to routines that
    recorded at least one hot mram trace: it may be a
    :class:`~repro.profile.sink.TraceEventSink`, a ``(ns, head_pc) ->
    aggregate`` table, or an iterable of mram head byte offsets.
    """
    if image is None or not image.analysis:
        return []
    hot = _hot_offsets(profile)
    loop_pcs = []
    other_pcs = []
    for name, result in image.analysis.items():
        if only_pure and not result.facts.pure_dispatch:
            continue
        routine = image.routines.get(name)
        if routine is None or routine.code_offset is None:
            continue
        base = routine.code_offset
        end = base + 4 * len(routine.code_words)
        if hot is not None and not any(base <= pc < end for pc in hot):
            continue
        cfg = result.cfg
        loop_heads = {dst for _src, dst in cfg.back_edges}
        for block in cfg.blocks:
            pc = base + 4 * block.start
            (loop_pcs if block.index in loop_heads else other_pcs).append(pc)
    seen = set()
    plan = []
    for pc in loop_pcs + other_pcs:
        if pc not in seen:
            seen.add(pc)
            plan.append(pc)
    return plan


def preform_superblocks(machine, profile=None, only_pure: bool = True):
    """Preform superblocks for *machine*'s loaded Metal image.

    Returns ``(blocks_compiled, links_installed)`` — ``(0, 0)`` when the
    machine has no Metal unit, no analysed image, or nothing eligible.
    """
    image = machine.metal_image
    unit = machine.core.metal
    if image is None or unit is None:
        return (0, 0)
    plan = plan_preform(image, profile=profile, only_pure=only_pure)
    if not plan:
        return (0, 0)
    return machine.sim.tcache.preform_mram(plan, unit.mram)


def _hot_offsets(profile):
    """Normalise *profile* into a set of mram head byte offsets (or None
    when no profile was given — meaning "preform everything eligible")."""
    if profile is None:
        return None
    table = getattr(profile, "trace_table", None)
    if callable(table):
        profile = table()
    if isinstance(profile, dict):
        return {pc for (ns, pc) in profile if ns == "mram"}
    return {int(pc) for pc in profile}
