"""Pipeline stages of the SM engine.

:class:`~repro.gpu.sm.SMEngine` processes one cycle back-to-front so
results never skip a stage; each step of that reverse walk is an
explicit stage object here, all sharing one typed :class:`EngineState`:

1. :class:`CompleteStage` — functional units finishing this cycle hand
   results to the operand provider, which routes them (RF queue /
   collector / both, depending on the design).
2. :class:`BankStage` — queued RF writes (each one its own bank
   request, see :class:`QueuedWrite`) arbitrate for bank ports
   together with the provider's operand reads; granted writes may
   release the scoreboard, granted reads enter the bank/crossbar
   pipeline and deliver after ``rf_read_latency``.
3. :class:`DispatchStage` — instructions whose operands are complete go
   to a functional unit, round-robin across warps, limited by unit
   widths; execution semantics run here and schedule a completion.
4. :class:`IssueStage` — schedulers pick warps (GTO by default); the
   next trace instruction issues when the scoreboard is clear, the
   provider has room, and no branch is unresolved.  One walk does it,
   charging every warp whose stall is provably unchanged from a cached
   per-warp stall profile.

The stages read static per-instruction facts from the decode cache
(:mod:`repro.gpu.decode`) and look warps up in the engine's per-warp
table instead of re-deriving anything per cycle.  Stage objects hold
only references into the engine — all mutable per-run state lives in
:class:`EngineState` (plus the issue stage's profile, a cache of what
that state implies).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..stats.trace import EventKind
from .banks import AccessRequest
from .collector import InflightInstruction
from .execution import BUCKET_ALU, BUCKET_MEM, BUCKET_SFU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sm import SMEngine


class QueuedWrite(AccessRequest):
    """One pending RF write awaiting a bank port.

    The write *is* its own bank request: its bank, register and age
    never change while it waits, so the queue entry goes to the arbiter
    as-is and comes back as the grant.  ``tag`` stays ``None`` (the
    grant is the object itself), so a queued write holds no reference
    back to itself.  ``entry`` is the instruction whose scoreboard the
    grant releases, or ``None`` when the provider released it already.
    """

    __slots__ = ("value", "entry")

    def __init__(self, warp_id: int, register_id: int, value: int, age: int,
                 bank: int, entry: Optional[InflightInstruction] = None):
        self.bank = bank
        self.warp_id = warp_id
        self.register_id = register_id
        self.tag = None
        self.age = age
        self.value = value
        self.entry = entry


class EngineState:
    """All mutable per-run pipeline state, shared by the stages.

    Attributes:
        cycle: current simulated cycle (0 before the first step).
        write_queue: RF writes awaiting a bank port, oldest first (each
            one is also its own bank request).
        completions: finish cycle -> [(entry, result value)].
        reads_in_flight: granted reads in the bank/crossbar pipeline,
            delivery cycle -> [(tag, warp_id, register_id)].
        inflight_read_tags: tags of granted-but-undelivered reads (the
            provider must not re-request them).
        in_flight: issued-but-unretired instruction count.
        active_warps: warps that still have instructions to issue.
        dispatch_rotor: round-robin pivot of the dispatch stage.
        write_age: monotonic age stamp for write arbitration.
        undispatched_mem: per-warp trace indexes of issued-but-
            undispatched memory ops (dispatch keeps program order so
            same-address load/store ordering holds within a warp).
        completion_heap: min-heap of the due cycles present in
            ``completions`` — the engine's event-horizon loop peeks it
            for the earliest future completion in O(1).
        read_heap: min-heap of the due cycles present in
            ``reads_in_flight``.
        issue_dirty: warp ids whose issue-relevant state (pc,
            scoreboard views, ``control_pending``) changed since the
            issue stage last derived their hazard outcome.  Dispatches
            and scoreboard releases append here; the issue stage
            consumes the list every cycle, so it stays short.  Warps
            not on the list provably stall exactly as they did last
            cycle, which lets the issue stage patch a cached stall
            profile instead of re-walking every warp.
    """

    __slots__ = ("cycle", "write_queue", "completions",
                 "reads_in_flight", "inflight_read_tags", "in_flight",
                 "active_warps", "dispatch_rotor", "write_age",
                 "undispatched_mem", "completion_heap", "read_heap",
                 "issue_dirty", "occupancy_gen")

    def __init__(self) -> None:
        self.cycle = 0
        self.write_queue: List[QueuedWrite] = []
        self.completions: Dict[
            int, List[Tuple[InflightInstruction, Optional[int]]]
        ] = {}
        self.reads_in_flight: Dict[int, List[Tuple[object, int, int]]] = {}
        self.inflight_read_tags: Set[object] = set()
        self.in_flight = 0
        self.active_warps = 0
        self.dispatch_rotor = 0
        self.write_age = 0
        self.undispatched_mem: Dict[int, Set[int]] = {}
        self.completion_heap: List[int] = []
        self.read_heap: List[int] = []
        self.issue_dirty: List[int] = []
        # Generation of provider occupancy (inserts and dispatches):
        # the key for cached "collector" stall outcomes.
        self.occupancy_gen = 0


class _Stage:
    """A pipeline stage bound to one engine."""

    __slots__ = ("engine", "state")

    def __init__(self, engine: "SMEngine"):
        self.engine = engine
        self.state = engine.state

    def run(self) -> bool:
        """Process one cycle; returns whether any event happened."""
        raise NotImplementedError


class CompleteStage(_Stage):
    """Hand finishing results to the provider for writeback routing."""

    __slots__ = ()

    def run(self) -> bool:
        state = self.state
        cycle = state.cycle
        heap = state.completion_heap
        if not heap or heap[0] > cycle:
            # Nothing can be due: every completions key is on the heap.
            return False
        while heap and heap[0] <= cycle:
            heappop(heap)
        finishing = state.completions.pop(cycle, None)
        if not finishing:
            return False
        on_complete = self.engine.provider.on_complete
        for entry, value in finishing:
            on_complete(entry, value)
        return True


class BankStage(_Stage):
    """Reads and writes arbitrate together for the single-ported banks."""

    __slots__ = ("_read_due_delta", "_crossbar_width", "_read_requests",
                 "_filter_inflight", "_arbitrate", "_num_banks",
                 "_check_request", "_regfile")

    def __init__(self, engine: "SMEngine"):
        super().__init__(engine)
        self._read_due_delta = max(1, engine.config.rf_read_latency)
        self._crossbar_width = engine.config.crossbar_width
        self._read_requests = engine.provider.read_requests
        # Providers that declare prefilters_inflight skip already-granted
        # tags themselves; others get the engine-level safety filter.
        self._filter_inflight = not getattr(
            engine.provider, "prefilters_inflight", False
        )
        # The arbiter is fixed at engine construction; bind its entry
        # points once instead of chasing engine.arbiter every cycle.
        self._arbitrate = engine.arbiter.arbitrate
        self._num_banks = engine.arbiter.num_banks
        self._check_request = engine.arbiter._check
        self._regfile = engine.regfile

    def run(self) -> bool:
        cycle = self.state.cycle
        return self._deliver_due_reads(cycle) | self.collect(cycle)

    def collect(self, cycle: int) -> bool:
        """The request/arbitrate half of the stage (deliveries aside).

        The engine's tick-guarded loop calls the two halves separately —
        deliveries only when the read heap says something is due,
        collection only when a head is requestable, a write waits, or a
        provider-internal delivery lands this cycle.
        """
        engine = self.engine
        state = self.state
        tags = state.inflight_read_tags
        reads = self._read_requests(cycle)
        if tags and reads and self._filter_inflight:
            reads = [request for request in reads if request.tag not in tags]
        writes = state.write_queue
        num_banks = self._num_banks
        # A lone request (read or write) cannot conflict with anything:
        # grant it in place, without an arbitration round trip.
        if not writes:
            if not reads:
                return False
            if len(reads) == 1:
                granted_reads = reads
                if not 0 <= reads[0].bank < num_banks:
                    self._check_request(reads[0])  # raises
            else:
                result = self._arbitrate(reads, writes)
                granted_reads = result.granted_reads
                if result.conflicts:
                    self._charge_conflicts(cycle, result.conflicts)
            granted_writes = ()
        elif not reads and len(writes) == 1:
            granted_writes = [writes[0]]
            if not 0 <= writes[0].bank < num_banks:
                self._check_request(writes[0])  # raises
            granted_reads = ()
        else:
            result = self._arbitrate(reads, writes)
            granted_reads = result.granted_reads
            granted_writes = result.granted_writes
            if result.conflicts:
                self._charge_conflicts(cycle, result.conflicts)

        if granted_writes:
            recorder = engine.recorder
            regfile_write = self._regfile.write
            release = engine.release_scoreboard
            for queued in granted_writes:
                writes.remove(queued)
                regfile_write(queued.warp_id, queued.register_id,
                              queued.value)
                if recorder is not None:
                    recorder.emit(
                        cycle, EventKind.WRITEBACK, warp=queued.warp_id,
                        reason="granted", register=queued.register_id,
                        bank=queued.bank,
                    )
                if queued.entry is not None:
                    release(queued.entry)

        if granted_reads:
            # Granted reads occupy the bank port now; the data lands in
            # the collector after the bank/crossbar pipeline latency.
            due = cycle + self._read_due_delta
            pending = state.reads_in_flight.get(due)
            if pending is None:
                pending = state.reads_in_flight[due] = []
                heappush(state.read_heap, due)
            for request in granted_reads:
                tags.add(request.tag)
                pending.append(
                    (request.tag, request.warp_id, request.register_id)
                )
            return True
        return bool(granted_writes)

    def _charge_conflicts(self, cycle: int, conflicts: int) -> None:
        engine = self.engine
        engine.counters.bank_conflicts += conflicts
        if engine.recorder is not None:
            engine.recorder.emit(cycle, EventKind.BANK_CONFLICT,
                                 count=conflicts)

    def _deliver_due_reads(self, cycle: int) -> bool:
        state = self.state
        heap = state.read_heap
        if not heap or heap[0] > cycle:
            # Nothing can be due: every reads_in_flight key is on the heap.
            return False
        while heap and heap[0] <= cycle:
            heappop(heap)
        due = state.reads_in_flight.pop(cycle, None)
        if not due:
            return False
        width = self._crossbar_width
        if width and len(due) > width:
            # The crossbar moves at most `width` operands per cycle;
            # the overflow slips to the next cycle.
            due, deferred = due[:width], due[width:]
            overflow = state.reads_in_flight.get(cycle + 1)
            if overflow is None:
                overflow = state.reads_in_flight[cycle + 1] = []
                heappush(heap, cycle + 1)
            overflow.extend(deferred)
        discard = state.inflight_read_tags.discard
        regfile_read = self._regfile.read
        deliver = self.engine.provider.deliver
        for tag, warp_id, register_id in due:
            discard(tag)
            deliver(tag, regfile_read(warp_id, register_id))
        return True


#: Dispatch priority: warp, then oldest-first within the warp —
#: ``(issue_cycle, trace_index)`` is unique within a warp, so the order
#: is total.
_dispatch_key = attrgetter("warp_id", "issue_cycle", "trace_index")


class DispatchStage(_Stage):
    """Send operand-complete instructions to the functional units."""

    __slots__ = ("_ready_entries", "_warps")

    def __init__(self, engine: "SMEngine"):
        super().__init__(engine)
        self._ready_entries = engine.provider.ready_entries
        self._warps = engine._warp_by_id

    def run(self) -> bool:
        engine = self.engine
        ready = self._ready_entries()
        if not ready:
            return False
        state = self.state
        cycle = state.cycle
        counters = engine.counters
        recorder = engine.recorder
        units = engine.units
        used = units.used
        capacity = units.capacity
        # A fresh budget: this stage runs at most once per cycle, and
        # the fast-forward check only reads the budget on cycles where
        # it ran (ready entries exist).
        used[BUCKET_ALU] = used[BUCKET_SFU] = used[BUCKET_MEM] = 0
        undispatched_mem = state.undispatched_mem
        if len(ready) > 1:
            # Round-robin across warps (paper SS IV-A), oldest-first
            # per warp: one sort by (warp, age), then the warps from
            # the rotor's pick onward go first.  ``ready`` is the
            # provider's own list, so the sort makes the copy
            # on_dispatch may not touch.
            ready = sorted(ready, key=_dispatch_key)
            warp_ids = sorted({entry.warp_id for entry in ready})
            pivot = warp_ids[state.dispatch_rotor % len(warp_ids)]
            if pivot != warp_ids[0]:
                split = 0
                while ready[split].warp_id != pivot:
                    split += 1
                ready = ready[split:] + ready[:split]
        else:
            ready = (ready[0],)
        # A lone entry needs no ordering, but the rotor still advances:
        # it only ticks on cycles with ready entries, exactly as before.
        state.dispatch_rotor += 1

        dispatched = 0
        on_dispatch = engine.provider.on_dispatch
        warps = self._warps
        completions = state.completions
        issue_dirty = state.issue_dirty
        for entry in ready:
            warp_id = entry.warp_id
            dec = entry.dec
            if dec.is_memory:
                # Memory effects apply at dispatch: only the oldest
                # undispatched memory op of the warp may go.
                pending = undispatched_mem.get(warp_id)
                if pending and min(pending) != entry.trace_index:
                    continue
            bucket = dec.bucket
            if used[bucket] >= capacity[bucket]:
                counters.exec_busy_stalls += 1
                if recorder is not None:
                    recorder.emit(
                        cycle, EventKind.DISPATCH_STALL,
                        warp=warp_id, reason="exec_busy",
                        trace_index=entry.trace_index,
                        opcode=dec.opcode_name,
                    )
                continue
            used[bucket] += 1
            on_dispatch(entry)
            entry.dispatch_cycle = cycle
            if recorder is not None:
                recorder.emit(
                    cycle, EventKind.DISPATCH, warp=warp_id,
                    trace_index=entry.trace_index,
                    opcode=dec.opcode_name,
                )
            # Dispatch drops this warp's WAR reader marks (the operands
            # are collected, and the guard is sampled this cycle in
            # _execute, so younger writers may proceed), may resolve
            # its branch, and frees a provider slot — issue-relevant.
            warp = warps[warp_id]
            issue_dirty.append(warp_id)
            reads = warp.sb_reads
            for reg_id in dec.source_ids:
                remaining = reads.get(reg_id, 0) - 1
                if remaining > 0:
                    reads[reg_id] = remaining
                else:
                    reads.pop(reg_id, None)
            if dec.guard_id is not None:
                pred_reads = warp.sb_pred_reads
                remaining = pred_reads.get(dec.guard_id, 0) - 1
                if remaining > 0:
                    pred_reads[dec.guard_id] = remaining
                else:
                    pred_reads.pop(dec.guard_id, None)
            if dec.is_memory:
                undispatched_mem[warp_id].discard(entry.trace_index)
                latency = engine.memory.latency(dec.inst, warp_id,
                                                entry.trace_index)
            else:
                latency = dec.latency
            if dec.is_control:
                # The next PC is determined once the branch leaves
                # the collector; issue of the successor may resume.
                warp.control_pending = False
            # Execute now; the result lands at the finish cycle.
            value = self._execute(entry, dec)
            finish = cycle + (latency if latency > 1 else 1)
            finishing = completions.get(finish)
            if finishing is None:
                finishing = completions[finish] = []
                heappush(state.completion_heap, finish)
            finishing.append((entry, value))
            dispatched += 1
        # Each dispatch freed a provider slot.
        state.occupancy_gen += dispatched
        return dispatched > 0

    def _execute(self, entry: InflightInstruction, dec) -> Optional[int]:
        """Functional semantics using the *collected* operand values."""
        engine = self.engine
        warp_id = entry.warp_id
        if dec.guard_id is not None:
            value = engine.predicates.get((warp_id, dec.guard_id), False)
            if not (not value if dec.guard_negated else value):
                # Predicated off: consumes the slot, produces nothing.
                return None
        get = entry.operand_values.get
        num_sources = dec.num_sources
        pad = dec.imm_pad
        # Unrolled operand materialization (two sources is by far the
        # common shape): same values the generic pad loop would build.
        if num_sources == 2:
            operands = (get(0, 0), get(1, 0), pad)
        elif num_sources == 1:
            operands = (get(0, 0), pad, pad)
        elif num_sources == 0:
            operands = (pad, pad, pad)
        else:
            operands = (get(0, 0), get(1, 0), get(2, 0))

        if dec.is_load:
            address = engine.memory.thread_address(warp_id, operands[0])
            return engine.memory.load(address)
        if dec.is_store:
            address = engine.memory.thread_address(warp_id, operands[0])
            engine.memory.store(address, operands[1])
            return None
        if dec.is_control or dec.is_nop:
            return None
        if dec.semantic is None:
            from ..errors import SimulationError

            raise SimulationError(f"no semantics for {dec.opcode_name}")
        if dec.dest_id is None:
            return None
        value = dec.semantic(operands[0], operands[1], operands[2])
        if dec.pred_dest_id is not None:
            engine.predicates[(warp_id, dec.pred_dest_id)] = bool(value)
        return value


class _IssueProfile:
    """Per-warp hazard-walk outcomes, patched in place across cycles.

    ``slots`` holds one ``[warp, charge]`` pair per schedulable warp in
    walk order (scheduler by scheduler); ``charge`` is ``None``
    (drained / branch pending, nothing to charge) or the
    ``(warp_id, reason, pc, opcode)`` stall record.  ``bounds`` marks
    each scheduler's ``(start, end)`` span of ``slots``, with
    per-scheduler stall sums in ``sched_sb`` / ``sched_col`` and the
    grand totals in ``n_scoreboard`` / ``n_collector`` — so both a
    fully stable cycle and an untouched scheduler inside a walk charge
    in O(1).  ``collector_ids`` tracks which warps are
    collector-stalled (the only outcomes that depend on provider
    occupancy); ``occupancy_gen`` is the occupancy generation the
    profile was last validated against.
    """

    __slots__ = ("slots", "index", "bounds", "sched_of", "sched_sb",
                 "sched_col", "n_scoreboard", "n_collector",
                 "collector_ids", "occupancy_gen")

    def __init__(self, slots, bounds, occupancy_gen):
        self.slots = slots
        self.bounds = bounds
        self.index = {
            pair[0].warp_id: i for i, pair in enumerate(slots)
        }
        sched_of = {}
        sched_sb = []
        sched_col = []
        collector_ids = set()
        for sched_idx, (start, end) in enumerate(bounds):
            n_sb = 0
            n_col = 0
            for warp, charge in slots[start:end]:
                sched_of[warp.warp_id] = sched_idx
                if charge is None:
                    continue
                if charge[1] == "scoreboard":
                    n_sb += 1
                else:
                    n_col += 1
                    collector_ids.add(warp.warp_id)
            sched_sb.append(n_sb)
            sched_col.append(n_col)
        self.sched_of = sched_of
        self.sched_sb = sched_sb
        self.sched_col = sched_col
        self.n_scoreboard = sum(sched_sb)
        self.n_collector = sum(sched_col)
        self.collector_ids = collector_ids
        self.occupancy_gen = occupancy_gen

    def patch(self, warp_id: int, outcome) -> None:
        """Replace one warp's outcome, keeping the sums consistent."""
        slot = self.slots[self.index[warp_id]]
        old = slot[1]
        if old is outcome:
            return
        sched_idx = self.sched_of[warp_id]
        if old is not None:
            if old[1] == "scoreboard":
                self.n_scoreboard -= 1
                self.sched_sb[sched_idx] -= 1
            else:
                self.n_collector -= 1
                self.sched_col[sched_idx] -= 1
                self.collector_ids.discard(warp_id)
        if outcome is not None:
            if outcome[1] == "scoreboard":
                self.n_scoreboard += 1
                self.sched_sb[sched_idx] += 1
            else:
                self.n_collector += 1
                self.sched_col[sched_idx] += 1
                self.collector_ids.add(warp_id)
        slot[1] = outcome

    def rederive(self, warp, can_accept) -> bool:
        """Re-check ``warp``'s hazards and record its outcome.

        Returns True when the warp could issue now; its slot is then
        left for the walk that follows, which visits the warp live and
        records what it learns.  A stall at the same pc for the same
        reason (the common case: a still-blocked warp whose other
        instructions moved) leaves the slot and the sums untouched.
        """
        warp_id = warp.warp_id
        pc = warp.pc
        if pc >= warp.end or warp.control_pending:
            self.patch(warp_id, None)
            return False
        dec = warp.decoded[pc]
        sb_pending = warp.sb_pending
        for reg_id in dec.source_ids:
            if reg_id in sb_pending:  # RAW
                reason = "scoreboard"
                break
        else:
            dest_id = dec.rf_dest_id
            pred_dest_id = dec.pred_dest_id
            if (
                dest_id is not None and (
                    dest_id in sb_pending  # WAW
                    or warp.sb_reads.get(dest_id))  # WAR
                or dec.guard_id is not None and dec.guard_id in warp.sb_preds
                or pred_dest_id is not None and (
                    pred_dest_id in warp.sb_preds
                    or warp.sb_pred_reads.get(pred_dest_id))
            ):
                reason = "scoreboard"
            elif can_accept(warp_id):
                return True
            else:
                reason = "collector"
        old = self.slots[self.index[warp_id]][1]
        if old is None or old[2] != pc or old[1] != reason:
            self.patch(warp_id, (warp_id, reason, pc, dec.opcode_name))
        return False


class IssueStage(_Stage):
    """Schedulers pick warps; hazard-free instructions enter collectors.

    A hazard walk touches every schedulable warp every cycle, which
    would dominate the engine's per-cycle cost during long memory
    stalls.  Its outcome, however, is a pure function of issue-relevant
    state — warp PCs, ``control_pending``, the scoreboard views, and
    provider occupancy — all of which only change at an issue, a
    dispatch, or a scoreboard release.  The engine records *which*
    warps those events touched in ``EngineState.issue_dirty``, so after
    the first walk that issues nothing this stage keeps an
    :class:`_IssueProfile` and, each cycle, re-derives only the dirty
    warps into it.  A stable stall cycle charges its counters from the
    precomputed sums in O(1); a cycle where one completion released one
    warp costs one hazard re-check; and when a re-derived warp turns
    out issuable, the one walk (:meth:`_walk`) runs with the profile:
    it visits the scheduler order as usual but performs the hazard
    checks only for warps whose outcome could have moved (the issuable
    ones and the collector-stalled ones), charging every other warp
    straight from the profile, and patches the profile with what it
    learns.  Warps the walk leaves in an unknown state (they issued,
    or the issue budget ran out mid-warp) are marked dirty for the next
    cycle.  The cache never guesses: every charge either comes from a
    live hazard check or from an outcome proven unchanged since one.

    The O(1) stall paths replay the walk's scheduler side effects
    through ``on_idle_span`` — exactly the bulk-idle contract the
    fast-forward path uses — which is only valid for schedulers whose
    ``idle_span_limit()`` is statically ``None`` (greedy reset, LRR
    pointer advance).  Spans compose additively, so each scheduler's
    owed idle cycles are only handed over when the walk next consults
    it.  A two-level scheduler with a pending set mutates state per
    ``note_stall``, so profiling is disabled for it up front and every
    cycle walks every warp live.
    """

    __slots__ = ("_issue_width", "_replay_ok", "_profile", "last_stalls",
                 "_idle_clock", "_synced", "_warps", "_schedulers")

    def __init__(self, engine: "SMEngine"):
        super().__init__(engine)
        self._issue_width = engine.config.issue_width_per_scheduler
        # idle_span_limit() is a static property of each scheduler (a
        # two-level pending set never changes size), so one check at
        # construction decides profile eligibility for the whole run.
        self._replay_ok = all(
            scheduler.idle_span_limit() is None
            for scheduler in engine.schedulers
        )
        self._profile: Optional[_IssueProfile] = None
        self._warps = engine._warp_by_id
        # Stall charges of the most recent walk without a profile (a
        # profile, when present, holds the current ones).
        self.last_stalls: List[tuple] = []
        self._schedulers = engine.schedulers
        # All-stall cycles so far: O(1) stall cycles, fast-forward
        # spans, and walks (for the schedulers they skip).  A scheduler
        # owes the bulk-idle hook every cycle since the clock value it
        # was last synced at; spans compose additively (greedy reset is
        # idempotent, LRR pointers sum), so they are handed over in one
        # on_idle_span call just before the walk next consults it.
        self._idle_clock = 0
        self._synced = [0] * len(engine.schedulers)

    def charge_span(self, span: int, stamp: int) -> None:
        """Charge the cycle just simulated ``span`` more times.

        The fast-forward jump calls this for a provably idle span:
        nothing issue-relevant can change across it, so the per-cycle
        walk would re-derive exactly this cycle's stall charges.  The
        counters take them in bulk, each stalled warp gets one
        coalesced (``count=span``) ISSUE_STALL event stamped ``stamp``,
        and every scheduler owes the span's bulk-idle hook (a span only
        happens when every scheduler is replay-ok: any other caps the
        horizon at zero).
        """
        engine = self.engine
        profile = self._profile
        if profile is None:
            stalls = self.last_stalls
            n_scoreboard = sum(
                1 for charge in stalls if charge[1] == "scoreboard")
            n_collector = len(stalls) - n_scoreboard
        else:
            n_scoreboard = profile.n_scoreboard
            n_collector = profile.n_collector
        counters = engine.counters
        counters.issue_stalls_scoreboard += span * n_scoreboard
        counters.issue_stalls_collector += span * n_collector
        recorder = engine.recorder
        if recorder is not None:
            if profile is not None:
                stalls = [
                    charge for _, charge in profile.slots
                    if charge is not None
                ]
            for warp_id, reason, pc, opcode_name in stalls:
                recorder.emit(
                    stamp, EventKind.ISSUE_STALL, warp=warp_id,
                    reason=reason, trace_index=pc,
                    opcode=opcode_name, count=span,
                )
        self._idle_clock += span

    def run(self) -> bool:
        state = self.state
        dirty = state.issue_dirty
        if state.active_warps == 0 and self._replay_ok:
            # Drain phase: every warp has issued its last instruction,
            # so the walk can never charge a stall again — only the
            # schedulers' idle bookkeeping remains, and for replay-ok
            # schedulers that is exactly the bulk-idle hook.
            self._profile = None
            self.last_stalls = ()
            dirty.clear()
            self._idle_clock += 1
            return False
        profile = self._profile
        if profile is None:
            # The walk runs against live state, so pending dirty marks
            # are consumed regardless of outcome.
            dirty.clear()
            return self._walk(None, (), ())
        occ = state.occupancy_gen
        collector_ids = profile.collector_ids
        occ_moved = occ != profile.occupancy_gen and collector_ids
        if dirty or occ_moved:
            can_accept = self.engine.provider.can_accept
            warps = self._warps
            rederive = profile.rederive
            seen = set(dirty)
            dirty.clear()
            live = set()
            for warp_id in seen:
                if rederive(warps[warp_id], can_accept):
                    live.add(warp_id)
            if occ_moved:
                # Occupancy moved (an issue filled or a dispatch freed
                # a unit).  Non-dirty collector-stalled warps kept their
                # scoreboard outcome (stalls there outrank acceptance),
                # so only the acceptance half needs a re-check — and a
                # shared pool answers it once for every warp.
                if self.engine.provider.shared_pool:
                    for warp_id in collector_ids:
                        if warp_id not in seen:
                            if can_accept(warp_id):
                                live.update(
                                    w for w in collector_ids
                                    if w not in seen
                                )
                            break
                else:
                    for warp_id in collector_ids:
                        if warp_id not in seen and can_accept(warp_id):
                            live.add(warp_id)
            if live:
                # seen minus live = warps just proven still-stalled;
                # the walk may skip their hazard checks too.
                return self._walk(profile, seen - live, live)
        profile.occupancy_gen = occ
        counters = self.engine.counters
        counters.issue_stalls_scoreboard += profile.n_scoreboard
        counters.issue_stalls_collector += profile.n_collector
        recorder = self.engine.recorder
        if recorder is not None:
            cycle = state.cycle
            for _, charge in profile.slots:
                if charge is not None:
                    recorder.emit(
                        cycle, EventKind.ISSUE_STALL, warp=charge[0],
                        reason=charge[1], trace_index=charge[2],
                        opcode=charge[3],
                    )
        self._idle_clock += 1
        return False

    def _walk(self, profile: Optional[_IssueProfile], settled,
              live) -> bool:
        """The issue walk: each scheduler over its candidate order.

        Without a profile every visited warp takes a live hazard check,
        and a walk that issues nothing leaves its outcomes behind as the
        profile for the following cycles.  With one, ``settled`` holds
        the dirty warps whose re-derivation just proved them still
        stalled and ``live`` the ones found issuable.  Only ``live``
        warps and collector-stalled ones (an issue here consumes
        provider slots mid-walk) take a live check; every other warp
        provably charges the same stall as the profile records, so the
        walk takes it from the cache.  Scheduler calls, budget
        accounting, and event emission follow the same order either
        way — including stopping the moment a scheduler's budget runs
        out, after which the remaining warps of that scheduler are
        neither charged nor noted.  A scheduler that owns no *live*
        warp cannot issue this cycle (settled warps just re-derived
        stalled, collector-stalled warps can only stay stalled while
        the walk fills provider slots, unmoved warps provably repeat),
        so it stalls wholesale: its members charge from the
        per-scheduler profile sums — which patch() keeps current — and
        it only owes one more bulk-idle cycle, with no per-warp visits
        at all.
        """
        engine = self.engine
        state = self.state
        counters = engine.counters
        recorder = engine.recorder
        provider = engine.provider
        can_accept = provider.can_accept
        insert = provider.insert
        cycle = state.cycle
        issue_width = self._issue_width
        warps = self._warps
        dirty = state.issue_dirty
        undispatched_mem = state.undispatched_mem
        # This cycle is idle for every scheduler the walk skips; the
        # ones it visits take their owed spans first and are synced.
        clock = self._idle_clock = self._idle_clock + 1
        synced = self._synced
        issued_any = False
        # Stalls charged from the profile accumulate here and land on
        # the counters after the walk.
        if profile is None:
            n_scoreboard = n_collector = 0
            visited: List[list] = []
            bounds: List[tuple] = []
            stall_log: List[tuple] = []
        else:
            slots = profile.slots
            index = profile.index
            collector_ids = profile.collector_ids
            # Schedulers owning a live warp; the walk only discards a
            # live warp while visiting its own scheduler, so the set
            # stays exact for every scheduler still ahead.
            sched_of = profile.sched_of
            live_scheds = {sched_of[warp_id] for warp_id in live}
            # Every other scheduler stalls wholesale, as the profile
            # sums record: start from the totals minus the walked ones.
            n_scoreboard = profile.n_scoreboard
            n_collector = profile.n_collector
            for sched_idx in live_scheds:
                n_scoreboard -= profile.sched_sb[sched_idx]
                n_collector -= profile.sched_col[sched_idx]
        for sched_idx, scheduler in enumerate(self._schedulers):
            if profile is not None and sched_idx not in live_scheds:
                # No member of this scheduler can issue this cycle, so
                # every member stalls exactly as the (patched) profile
                # records: issues in *other* schedulers only consume
                # provider slots, which can't unstall anyone.  It
                # charged in O(1) above, like an idle cycle.
                if recorder is not None:
                    start, end = profile.bounds[sched_idx]
                    for _warp, charge in slots[start:end]:
                        if charge is not None:
                            recorder.emit(
                                cycle, EventKind.ISSUE_STALL,
                                warp=charge[0], reason=charge[1],
                                trace_index=charge[2], opcode=charge[3],
                            )
                continue
            owed = clock - 1 - synced[sched_idx]
            if owed:
                # Owed bulk-idle spans land before candidate_order.
                scheduler.on_idle_span(owed)
            synced[sched_idx] = clock
            if profile is None:
                bound_start = len(visited)
            budget = issue_width
            note_stall = scheduler.note_stall
            for warp_id in scheduler.candidate_order():
                if budget == 0:
                    break
                if profile is not None:
                    if warp_id in live:
                        live.discard(warp_id)
                    elif (
                        warp_id in settled
                        or warp_id not in collector_ids
                        or not can_accept(warp_id)
                    ):
                        # Outcome proven current: just re-derived, not
                        # moved since the profile recorded it, or a
                        # collector stall whose provider is still full.
                        note_stall(warp_id)
                        charge = slots[index[warp_id]][1]
                        if charge is not None:
                            if charge[1] == "scoreboard":
                                n_scoreboard += 1
                            else:
                                n_collector += 1
                            if recorder is not None:
                                recorder.emit(
                                    cycle, EventKind.ISSUE_STALL,
                                    warp=charge[0], reason=charge[1],
                                    trace_index=charge[2],
                                    opcode=charge[3],
                                )
                        continue
                # A live check: hazards against the current state.
                warp = warps[warp_id]
                issued_here = 0
                fresh_charge = None
                decoded = warp.decoded
                sb_pending = warp.sb_pending
                sb_reads = warp.sb_reads
                sb_preds = warp.sb_preds
                sb_pred_reads = warp.sb_pred_reads
                while budget > 0:
                    pc = warp.pc
                    if pc >= warp.end or warp.control_pending:
                        break
                    dec = decoded[pc]
                    # Scoreboard: RAW / WAW / WAR / predicate hazards.
                    stalled = False
                    for reg_id in dec.source_ids:
                        if reg_id in sb_pending:
                            stalled = True  # RAW
                            break
                    dest_id = dec.rf_dest_id
                    if not stalled:
                        if dest_id is not None and (
                            dest_id in sb_pending  # WAW
                            or sb_reads.get(dest_id)  # WAR
                        ):
                            stalled = True
                        elif (dec.guard_id is not None
                              and dec.guard_id in sb_preds):
                            stalled = True  # guard not resolved yet
                        elif dec.pred_dest_id is not None and (
                            dec.pred_dest_id in sb_preds  # predicate WAW
                            # predicate WAR: an older guard reader has
                            # not sampled its guard at dispatch yet
                            or sb_pred_reads.get(dec.pred_dest_id)
                        ):
                            stalled = True
                    if stalled:
                        counters.issue_stalls_scoreboard += 1
                        fresh_charge = (
                            warp_id, "scoreboard", pc, dec.opcode_name
                        )
                        if recorder is not None:
                            recorder.emit(
                                cycle, EventKind.ISSUE_STALL, warp=warp_id,
                                reason="scoreboard", trace_index=pc,
                                opcode=dec.opcode_name,
                            )
                        break
                    if not can_accept(warp_id):
                        counters.issue_stalls_collector += 1
                        fresh_charge = (
                            warp_id, "collector", pc, dec.opcode_name
                        )
                        if recorder is not None:
                            recorder.emit(
                                cycle, EventKind.ISSUE_STALL, warp=warp_id,
                                reason="collector", trace_index=pc,
                                opcode=dec.opcode_name,
                            )
                        break

                    entry = InflightInstruction(warp_id, pc, dec.inst,
                                                cycle, dec=dec)
                    if dest_id is not None:
                        sb_pending.add(dest_id)
                    if dec.pred_dest_id is not None:
                        sb_preds.add(dec.pred_dest_id)
                    for reg_id in dec.source_ids:
                        sb_reads[reg_id] = sb_reads.get(reg_id, 0) + 1
                    if dec.guard_id is not None:
                        sb_pred_reads[dec.guard_id] = (
                            sb_pred_reads.get(dec.guard_id, 0) + 1)
                    insert(entry)
                    state.occupancy_gen += 1
                    if dec.is_memory:
                        pending = undispatched_mem.get(warp_id)
                        if pending is None:
                            pending = undispatched_mem[warp_id] = set()
                        pending.add(pc)
                    warp.pc = pc + 1
                    if pc + 1 == warp.end:
                        state.active_warps -= 1
                    state.in_flight += 1
                    counters.issued += 1
                    if recorder is not None:
                        recorder.emit(
                            cycle, EventKind.ISSUE, warp=warp_id,
                            trace_index=pc, opcode=dec.opcode_name,
                        )
                    if dec.is_control:
                        warp.control_pending = True
                    issued_here += 1
                    budget -= 1
                    issued_any = True
                if issued_here:
                    scheduler.note_issue(warp_id)
                else:
                    # Drained warps must report stalls too: a two-level
                    # scheduler has to swap them out of the active set
                    # or pending warps would starve.
                    note_stall(warp_id)
                if profile is None:
                    if fresh_charge is not None:
                        stall_log.append(fresh_charge)
                    if not issued_here:
                        visited.append([warp, fresh_charge])
                elif fresh_charge is not None or (
                    warp.pc >= warp.end or warp.control_pending
                ):
                    # The while loop ended on a definite outcome (a
                    # stall, drained, or a pending branch) — record it
                    # so the next cycle starts current.
                    profile.patch(warp_id, fresh_charge)
                else:
                    # Budget ran out mid-warp: its next outcome is
                    # unknown, re-derive it next cycle.
                    profile.patch(warp_id, None)
                    dirty.append(warp_id)
            if profile is None:
                bounds.append((bound_start, len(visited)))
        counters.issue_stalls_scoreboard += n_scoreboard
        counters.issue_stalls_collector += n_collector
        if profile is not None:
            if live:
                # Issuable warps the walk never reached (an earlier
                # warp consumed their scheduler's budget): their
                # profile slots are stale and their dirty marks were
                # consumed, so re-mark them for the next cycle.
                dirty.extend(live)
            # The walk issued (the warp that triggered it is reached
            # with budget in hand unless an earlier warp issued first),
            # so the provider occupancy moved; leaving occupancy_gen
            # stale makes the next cycle re-derive the collector-stalled
            # warps.
            return issued_any
        self.last_stalls = stall_log
        if not issued_any and self._replay_ok:
            # A fruitless walk visited every schedulable warp (the
            # budget was never consumed): its outcome list is a
            # complete, patchable profile for the following cycles.
            self._profile = _IssueProfile(visited, bounds,
                                          state.occupancy_gen)
        return issued_any
