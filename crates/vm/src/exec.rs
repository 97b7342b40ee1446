//! The bytecode dispatch loop.
//!
//! Executes a [`CompiledProgram`] with semantics byte-identical to the
//! tree-walking interpreter in `ped-runtime`: same output lines, same
//! statement/parallel-loop/iteration counters, same race reports from
//! the shadow tracker, and the same error strings raised in the same
//! order. `tests/vm_oracle.rs` in ped-runtime enforces this contract
//! over every workload.
//!
//! On top of plain execution, the loop supports a *trace mode*
//! ([`run_traced`]): for a chosen set of DO statements it records the
//! address vector of every array load/store together with the iteration
//! coordinates of the enclosing instrumented loops. Trace buffers are
//! plain per-context `Vec`s — no atomics, no `SeqCst` — because tracing
//! forces a single worker; see DESIGN.md §5g. The dynamic dependence
//! validator ([`crate::validate`]) is built on these traces.
//!
//! Parallel DOALLs run on a *team*: the worker threads of one run,
//! spawned once by [`run_metered`] and parked between DOALL instances,
//! in the style of an OpenMP parallel region (DESIGN.md §5g).

use crate::compile::{
    ArgSpec, ArraySpec, CompiledProgram, CompiledUnit, DoSpec, FormalSpec, Op, ToIntKind,
};
use crate::rt::{
    check_call_depth, combine, err, eval_binop, eval_intrinsic, identity_of, RunOptions, RunOutput,
    RunResult, RunStats, RuntimeError,
};
use crate::shadow::Shadow;
use crate::value::{ArrayObj, Cell, Value};
use ped_fortran::ast::{StmtId, UnOp};
use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Which loops to instrument, and how many events to keep.
#[derive(Clone, Debug, Default)]
pub struct TracePlan {
    /// DO statement ids whose iteration coordinates are tracked; array
    /// accesses are recorded only while at least one of these loops is
    /// active.
    pub loops: HashSet<u32>,
    /// Event cap (0 = default). Hitting it sets `Trace::truncated`.
    pub max_events: usize,
}

const DEFAULT_MAX_EVENTS: usize = 8_000_000;

/// One array access observed in trace mode.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Statement performing the access.
    pub stmt: u32,
    /// Array identity (allocation address) — disambiguates same-named
    /// arrays from different activations.
    pub arr: usize,
    /// Name-pool index of the array name.
    pub name: u32,
    /// Flat element index.
    pub flat: usize,
    pub write: bool,
    /// Iteration coordinates of enclosing instrumented loops,
    /// outermost first: (DO statement id, zero-based trip count).
    pub iters: Vec<(u32, i64)>,
}

/// Result of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    pub truncated: bool,
}

struct TraceCtx {
    loops: HashSet<u32>,
    max: usize,
    iters: Vec<(u32, i64)>,
    events: Vec<TraceEvent>,
    truncated: bool,
}

/// Per-thread execution state: the copy-out stash stack for active
/// CALLs and the optional trace buffer. Worker threads get their own.
struct ExecCtx {
    rets: Vec<Vec<Option<Value>>>,
    trace: Option<TraceCtx>,
    instrs: u64,
    /// Statements executed by this context. Kept thread-local so the
    /// dispatch loop never touches an atomic per statement; flushed
    /// into `Vm::steps` when the context retires.
    steps: u64,
    /// Per-DO-statement trip counts, merged into `Vm::loop_iters` at
    /// flush time. Addition is commutative, so the merged totals are
    /// identical to the interpreter's shared-map counts.
    loop_iters: HashMap<u32, u64>,
    /// This context runs a DOALL chunk. A DOALL reached from here (only
    /// through a FUNCTION, which resets `in_parallel`) runs its chunks
    /// inline: the team is busy with the enclosing DOALL.
    in_team: bool,
}

impl ExecCtx {
    fn new() -> ExecCtx {
        ExecCtx {
            rets: Vec::new(),
            trace: None,
            instrs: 0,
            steps: 0,
            loop_iters: HashMap::new(),
            in_team: false,
        }
    }
}

/// A procedure activation: slot-addressed scalars and arrays plus the
/// statement-scratch register file. `None` scalars have never been
/// stored and read as their typed zero (the interpreter's
/// uninitialized-variable default).
#[derive(Clone)]
struct Frame {
    unit: usize,
    /// Activation depth: 0 for the main program, one more per CALL or
    /// function reference (bounded by `rt::MAX_CALL_DEPTH`).
    depth: u32,
    scalars: Vec<Option<Value>>,
    arrays: Vec<Option<Arc<ArrayObj>>>,
    regs: Vec<Value>,
}

enum Flow {
    Normal,
    Jump(u32),
    Ret,
    Stop,
}

/// What an executed op asks the block loop to do next.
enum Ctl {
    Next,
    /// Jump to an absolute pc (internal branches).
    Goto(u32),
    /// Resolve a source label in the current block, or propagate.
    Label(u32),
    Flow(Flow),
}

/// One COMMON scalar slot. Numeric and logical slots use the same
/// lock-free `UnsafeCell<Cell>` storage (and the same soundness
/// argument) as [`ArrayObj`]: PED certifies loops race-free before
/// running them in parallel, and uncertified racy writes are exactly
/// what the shadow tracker reports. String-typed slots — rare — keep a
/// lock.
enum ComScalar {
    Cell(UnsafeCell<Cell>),
    Boxed(RwLock<Value>),
}

// SAFETY: see ArrayObj — unsynchronized Cell access is the engine's
// documented tradeoff; Boxed is internally synchronized.
unsafe impl Sync for ComScalar {}

impl ComScalar {
    fn new(zero: &Value) -> ComScalar {
        match Cell::from_value(zero) {
            Some(c) => ComScalar::Cell(UnsafeCell::new(c)),
            None => ComScalar::Boxed(RwLock::new(zero.clone())),
        }
    }

    fn load(&self) -> Value {
        match self {
            ComScalar::Cell(c) => unsafe { *c.get() }.to_value(),
            ComScalar::Boxed(l) => l.read().unwrap().clone(),
        }
    }

    fn store(&self, v: Value) -> RunResult<()> {
        match self {
            ComScalar::Cell(c) => match Cell::from_value(&v) {
                Some(cell) => {
                    unsafe { *c.get() = cell };
                    Ok(())
                }
                None => err("cannot store string in numeric COMMON"),
            },
            ComScalar::Boxed(l) => {
                *l.write().unwrap() = v;
                Ok(())
            }
        }
    }
}

/// One chunk of a DOALL instance: iterations `range` of the loop body,
/// run on the chunk's own frame (a clone of the loop's frame with
/// private-array copies and reduction identities already in place).
struct Chunk {
    body: u32,
    var_slot: u32,
    lo: i64,
    step: i64,
    range: Range<usize>,
    frame: Frame,
}

/// What one team member hands back: its chunk's frame or runtime error,
/// or the payload of a panic to re-raise on the posting thread.
type ChunkResult = std::thread::Result<RunResult<Frame>>;

/// A team member's mailbox. Each transition has exactly one waiter:
/// the member waits for `chunk` (or `dismissed`), the posting thread
/// for `result`.
#[derive(Default)]
struct SlotState {
    chunk: Option<Chunk>,
    result: Option<ChunkResult>,
    dismissed: bool,
}

#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    /// The lock, even if a panic poisoned it: the state is a mailbox,
    /// consistent after every critical section.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn post(&self, chunk: Chunk) {
        self.lock().chunk = Some(chunk);
        self.cv.notify_one();
    }

    /// The member's next chunk, or `None` once the team is dismissed. A
    /// wake-up proves nothing: only a chunk in the mailbox is work.
    fn next_chunk(&self) -> Option<Chunk> {
        let mut s = self.lock();
        loop {
            if s.dismissed {
                return None;
            }
            if let Some(c) = s.chunk.take() {
                return Some(c);
            }
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish(&self, r: ChunkResult) {
        self.lock().result = Some(r);
        self.cv.notify_one();
    }

    fn result(&self) -> ChunkResult {
        let mut s = self.lock();
        loop {
            if let Some(r) = s.result.take() {
                return r;
            }
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn dismiss(&self) {
        self.lock().dismissed = true;
        self.cv.notify_all();
    }
}

/// The persistent worker team of one parallel run: member `m` (1-based)
/// owns `slots[m - 1]` and runs chunk `m` of every DOALL instance; the
/// thread that reaches the DOALL runs chunk 0 itself.
struct Team {
    slots: Vec<Slot>,
}

/// Dismisses the team when the run ends — by return, error or unwind —
/// so the enclosing `thread::scope` can join every member.
struct Dismiss<'t>(&'t Team);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        for slot in &self.0.slots {
            slot.dismiss();
        }
    }
}

struct Vm<'p> {
    prog: &'p CompiledProgram,
    opts: &'p RunOptions,
    com_scalars: Vec<ComScalar>,
    com_arrays: Vec<Arc<ArrayObj>>,
    reduce_lock: Mutex<()>,
    output: Mutex<Vec<String>>,
    input: Mutex<VecDeque<Value>>,
    steps: AtomicU64,
    parallel_loops: AtomicU64,
    parallel_iters: AtomicU64,
    loop_iters: Mutex<HashMap<StmtId, u64>>,
    /// Current iteration of the loop under validation (i64::MIN = off).
    shadow_iter: AtomicI64,
    shadow: Mutex<Shadow>,
    shadow_exempt: Mutex<HashSet<usize>>,
    race_log: Mutex<Vec<String>>,
    instr_total: AtomicU64,
    /// Present when some DOALL can run in parallel: more than one
    /// worker, no validation, and a parallel `DoSpec` in the program.
    team: Option<Team>,
}

/// Run a compiled program.
pub fn run(prog: &CompiledProgram, opts: &RunOptions) -> RunResult<RunOutput> {
    run_metered(prog, opts).map(|(out, _)| out)
}

/// Run and also report the number of bytecode instructions dispatched.
///
/// A run that can execute a DOALL in parallel first spawns its team —
/// `workers - 1` members, parked until a DOALL posts them a chunk — and
/// dismisses it when the main program ends.
pub fn run_metered(prog: &CompiledProgram, opts: &RunOptions) -> RunResult<(RunOutput, u64)> {
    let vm = Vm::new(prog, opts);
    let mut ctx = ExecCtx::new();
    let out = match &vm.team {
        None => vm.run_main(&mut ctx),
        Some(team) => std::thread::scope(|s| {
            let _dismiss = Dismiss(team);
            for (i, slot) in team.slots.iter().enumerate() {
                let vm = &vm;
                // Members keep std's default stack (2 MiB), which
                // `rt::MAX_CALL_DEPTH` is sized for.
                std::thread::Builder::new()
                    .name(format!("ped-vm-team-{}", i + 1))
                    .spawn_scoped(s, move || vm.member(slot))
                    .expect("spawn a VM team member");
            }
            vm.run_main(&mut ctx)
        }),
    }?;
    let instrs = vm.instr_total.load(Ordering::Relaxed) + ctx.instrs;
    Ok((out, instrs))
}

/// Run with access tracing. Tracing implies a single worker (trace
/// buffers are context-local and unsynchronized), so `workers` and
/// `validate_parallel` are overridden: instrumented loops execute
/// sequentially.
pub fn run_traced(
    prog: &CompiledProgram,
    opts: &RunOptions,
    plan: &TracePlan,
) -> RunResult<(RunOutput, Trace)> {
    let opts = RunOptions {
        workers: 1,
        validate_parallel: false,
        ..opts.clone()
    };
    let vm = Vm::new(prog, &opts);
    let mut ctx = ExecCtx::new();
    ctx.trace = Some(TraceCtx {
        loops: plan.loops.clone(),
        max: if plan.max_events == 0 {
            DEFAULT_MAX_EVENTS
        } else {
            plan.max_events
        },
        iters: Vec::new(),
        events: Vec::new(),
        truncated: false,
    });
    let out = vm.run_main(&mut ctx)?;
    let t = ctx.trace.take().unwrap();
    Ok((
        out,
        Trace {
            events: t.events,
            truncated: t.truncated,
        },
    ))
}

impl<'p> Vm<'p> {
    fn new(prog: &'p CompiledProgram, opts: &'p RunOptions) -> Vm<'p> {
        Vm {
            prog,
            opts,
            com_scalars: prog.common_scalar_zero.iter().map(ComScalar::new).collect(),
            com_arrays: prog
                .common_arrays
                .iter()
                .map(|(b, p)| Arc::new(ArrayObj::new(b.clone(), *p)))
                .collect(),
            reduce_lock: Mutex::new(()),
            output: Mutex::new(Vec::new()),
            input: Mutex::new(opts.input.iter().cloned().collect()),
            steps: AtomicU64::new(0),
            parallel_loops: AtomicU64::new(0),
            parallel_iters: AtomicU64::new(0),
            loop_iters: Mutex::new(HashMap::new()),
            shadow_iter: AtomicI64::new(i64::MIN),
            shadow: Mutex::new(Shadow::new()),
            shadow_exempt: Mutex::new(HashSet::new()),
            race_log: Mutex::new(Vec::new()),
            instr_total: AtomicU64::new(0),
            team: (opts.workers > 1
                && !opts.validate_parallel
                && prog
                    .units
                    .iter()
                    .any(|u| u.do_specs.iter().any(|d| d.parallel)))
            .then(|| Team {
                slots: (1..opts.workers).map(|_| Slot::default()).collect(),
            }),
        }
    }

    /// A team member's life: run each posted chunk, report, park again.
    /// A panic is caught and handed to the posting thread, which
    /// re-raises it, so a failing member never leaves the poster waiting.
    fn member(&self, slot: &Slot) {
        while let Some(chunk) = slot.next_chunk() {
            slot.finish(panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_chunk(chunk)
            })));
        }
    }

    /// Run one DOALL chunk on this thread, in a context of its own.
    fn run_chunk(&self, chunk: Chunk) -> RunResult<Frame> {
        let Chunk {
            body,
            var_slot,
            lo,
            step,
            range,
            mut frame,
        } = chunk;
        let mut ctx = ExecCtx::new();
        ctx.in_team = true;
        let mut out = Ok(());
        for k in range {
            frame.scalars[var_slot as usize] = Some(Value::Int(lo + (k as i64) * step));
            match self.exec_block(&mut frame, body, true, &mut ctx) {
                Ok(Flow::Normal) => {}
                Ok(_) => {
                    out = err("control flow escapes a parallel loop");
                    break;
                }
                Err(e) => {
                    out = Err(e);
                    break;
                }
            }
        }
        self.instr_total.fetch_add(ctx.instrs, Ordering::Relaxed);
        self.flush_stats(&mut ctx);
        out.map(|()| frame)
    }

    /// Merge a retiring context's thread-local counters into the
    /// shared totals (the once-per-context analogue of what the
    /// interpreter pays per statement and per loop entry).
    fn flush_stats(&self, ctx: &mut ExecCtx) {
        if ctx.steps > 0 {
            self.steps.fetch_add(ctx.steps, Ordering::Relaxed);
            ctx.steps = 0;
        }
        if !ctx.loop_iters.is_empty() {
            let mut g = self.loop_iters.lock().unwrap();
            for (stmt, trips) in ctx.loop_iters.drain() {
                *g.entry(StmtId(stmt)).or_insert(0) += trips;
            }
        }
    }

    fn run_main(&self, ctx: &mut ExecCtx) -> RunResult<RunOutput> {
        let mut frame = self.frame_for(self.prog.main, &[], None, ctx)?;
        let cu = &self.prog.units[self.prog.main];
        let flow = self.exec_block(&mut frame, cu.body_block, false, ctx)?;
        if let Flow::Jump(l) = flow {
            return err(format!("GOTO {l} jumped out of the program"));
        }
        self.flush_stats(ctx);
        let stats = RunStats {
            steps: self.steps.load(Ordering::Relaxed),
            parallel_loops: self.parallel_loops.load(Ordering::Relaxed),
            parallel_iterations: self.parallel_iters.load(Ordering::Relaxed),
            loop_iterations: self.loop_iters.lock().unwrap().clone(),
        };
        Ok(RunOutput {
            lines: std::mem::take(&mut *self.output.lock().unwrap()),
            stats,
            races: std::mem::take(&mut *self.race_log.lock().unwrap()),
        })
    }

    /// Create an activation: bind formals from the caller's registers,
    /// attach COMMON arrays, then run the init prologue (PARAMETER,
    /// DATA, local array allocation) — `frame_for`'s exact order.
    fn frame_for(
        &self,
        unit: usize,
        args: &[ArgSpec],
        caller: Option<&Frame>,
        ctx: &mut ExecCtx,
    ) -> RunResult<Frame> {
        let cu = &self.prog.units[unit];
        let depth = caller.map_or(0, |c| c.depth + 1);
        check_call_depth(depth, &cu.name)?;
        let mut frame = Frame {
            unit,
            depth,
            scalars: vec![None; cu.scalar_zero.len()],
            arrays: vec![None; cu.arrays.len()],
            regs: vec![Value::Int(0); cu.nregs as usize],
        };
        for (formal, arg) in cu.params.iter().zip(args) {
            let caller = caller.expect("arguments without a caller frame");
            match (formal, arg) {
                (FormalSpec::Scalar(slot), ArgSpec::Scalar(r))
                | (FormalSpec::Scalar(slot), ArgSpec::ScalarRefVar(r))
                | (FormalSpec::Scalar(slot), ArgSpec::ScalarRefElem(r)) => {
                    frame.scalars[*slot as usize] = Some(caller.regs[*r as usize].clone());
                }
                (FormalSpec::Array(a), ArgSpec::Array(src)) => {
                    frame.arrays[*a as usize] = caller.arrays[*src as usize].clone();
                }
                _ => return err("internal: actual/formal kind mismatch"),
            }
        }
        for (i, spec) in cu.arrays.iter().enumerate() {
            if let ArraySpec::Common(flat) = spec {
                frame.arrays[i] = Some(Arc::clone(&self.com_arrays[*flat as usize]));
            }
        }
        let (mut pc, end) = (cu.init.0, cu.init.1);
        while pc < end {
            match self.op(&mut frame, cu, pc, false, ctx)? {
                Ctl::Next => pc += 1,
                Ctl::Goto(p) => pc = p,
                _ => return err("internal: control flow in init prologue"),
            }
        }
        Ok(frame)
    }

    fn exec_block(
        &self,
        frame: &mut Frame,
        block: u32,
        in_parallel: bool,
        ctx: &mut ExecCtx,
    ) -> RunResult<Flow> {
        let cu = &self.prog.units[frame.unit];
        let info = &cu.blocks[block as usize];
        let mut pc = info.start;
        while pc < info.end {
            match self.op(frame, cu, pc, in_parallel, ctx)? {
                Ctl::Next => pc += 1,
                Ctl::Goto(p) => pc = p,
                Ctl::Label(l) => match info.label_pc(l) {
                    Some(p) => pc = p,
                    None => return Ok(Flow::Jump(l)),
                },
                Ctl::Flow(f) => return Ok(f),
            }
        }
        Ok(Flow::Normal)
    }

    /// Record an array element access with the shadow tracker (validated
    /// DOALLs) and the trace buffer (instrumented loops).
    fn note_access(
        &self,
        arr: &Arc<ArrayObj>,
        name: u32,
        flat: usize,
        write: bool,
        stmt: u32,
        ctx: &mut ExecCtx,
    ) {
        let iter = self.shadow_iter.load(Ordering::Relaxed);
        if iter != i64::MIN {
            let id = Arc::as_ptr(arr) as usize;
            if !self.shadow_exempt.lock().unwrap().contains(&id) {
                self.shadow.lock().unwrap().record(
                    id,
                    &self.prog.names[name as usize],
                    flat,
                    iter,
                    write,
                );
            }
        }
        if let Some(t) = ctx.trace.as_mut() {
            if !t.iters.is_empty() {
                if t.events.len() < t.max {
                    t.events.push(TraceEvent {
                        stmt,
                        arr: Arc::as_ptr(arr) as usize,
                        name,
                        flat,
                        write,
                        iters: t.iters.clone(),
                    });
                } else {
                    t.truncated = true;
                }
            }
        }
    }

    fn reg_int(frame: &Frame, r: u16) -> RunResult<i64> {
        match &frame.regs[r as usize] {
            Value::Int(x) => Ok(*x),
            v => err(format!("internal: expected integer register, got {v:?}")),
        }
    }

    /// Convert a subscript register — the fused equivalent of the old
    /// trailing `ToInt` op, with its exact error string.
    #[inline]
    fn sub_int(frame: &Frame, r: u16) -> RunResult<i64> {
        frame.regs[r as usize]
            .as_int()
            .ok_or_else(|| RuntimeError("non-integer subscript".into()))
    }

    /// Gather slot-pool subscripts (`LoadElemS`/`StoreElemS`): read
    /// each scalar slot with the `LoadLocal` zero-default, then convert
    /// — byte-identical to the register path, minus the register
    /// traffic. Rank is compile-time capped at 7.
    fn gather_slot_subs<'a>(
        frame: &Frame,
        cu: &CompiledUnit,
        slots: u32,
        n: u8,
        buf: &'a mut [i64; 7],
    ) -> RunResult<&'a [i64]> {
        let n = n as usize;
        for (i, b) in buf.iter_mut().enumerate().take(n) {
            let slot = cu.sub_slots[slots as usize + i] as usize;
            let v = match &frame.scalars[slot] {
                Some(v) => v,
                None => &cu.scalar_zero[slot],
            };
            *b = v
                .as_int()
                .ok_or_else(|| RuntimeError("non-integer subscript".into()))?;
        }
        Ok(&buf[..n])
    }

    /// Gather `n` subscript registers into the caller's stack buffer —
    /// no heap allocation on the per-element hot path. Fortran 77 caps
    /// ranks at 7, so the overflow Vec path is effectively dead.
    fn gather_subs<'a>(
        frame: &Frame,
        subs: u16,
        n: u8,
        buf: &'a mut [i64; 7],
        big: &'a mut Vec<i64>,
    ) -> RunResult<&'a [i64]> {
        let n = n as usize;
        if n <= 7 {
            for (i, b) in buf.iter_mut().enumerate().take(n) {
                *b = Self::sub_int(frame, subs + i as u16)?;
            }
            Ok(&buf[..n])
        } else {
            big.reserve(n);
            for i in 0..n {
                big.push(Self::sub_int(frame, subs + i as u16)?);
            }
            Ok(big)
        }
    }

    fn store_elem(
        &self,
        frame: &Frame,
        arr: u32,
        subs: u16,
        n: u8,
        v: &Value,
        name: u32,
        stmt: u32,
        ctx: &mut ExecCtx,
    ) -> RunResult<()> {
        let (mut buf, mut big) = ([0i64; 7], Vec::new());
        let idx = Self::gather_subs(frame, subs, n, &mut buf, &mut big)?;
        let obj = frame.arrays[arr as usize].as_ref().ok_or_else(|| {
            RuntimeError(format!(
                "{} is not an array",
                self.prog.names[name as usize]
            ))
        })?;
        let flat = obj.flat_index(idx);
        if let Ok(f) = flat {
            self.note_access(obj, name, f, true, stmt, ctx);
        }
        let cell = Cell::from_value(v)
            .ok_or_else(|| RuntimeError("cannot store string in array".into()))?;
        obj.set_flat(flat.map_err(RuntimeError)?, cell);
        Ok(())
    }

    #[inline(always)]
    fn op(
        &self,
        frame: &mut Frame,
        cu: &CompiledUnit,
        pc: u32,
        in_parallel: bool,
        ctx: &mut ExecCtx,
    ) -> RunResult<Ctl> {
        ctx.instrs += 1;
        match &cu.code[pc as usize] {
            Op::Step => {
                // Thread-local count; the limit check folds in steps
                // other contexts have already flushed, so it trips at
                // the same statement as the interpreter's shared
                // counter would (exactly, in serial execution).
                ctx.steps += 1;
                if ctx.steps + self.steps.load(Ordering::Relaxed) > self.opts.max_steps {
                    return err("step limit exceeded");
                }
                Ok(Ctl::Next)
            }
            Op::Const { dst, k } => {
                frame.regs[*dst as usize] = cu.consts[*k as usize].clone();
                Ok(Ctl::Next)
            }
            Op::LoadLocal { dst, slot } => {
                frame.regs[*dst as usize] = match &frame.scalars[*slot as usize] {
                    Some(v) => v.clone(),
                    None => cu.scalar_zero[*slot as usize].clone(),
                };
                Ok(Ctl::Next)
            }
            Op::StoreLocal { slot, src } => {
                frame.scalars[*slot as usize] = Some(frame.regs[*src as usize].clone());
                Ok(Ctl::Next)
            }
            Op::LoadCommon { dst, slot } => {
                frame.regs[*dst as usize] = self.com_scalars[*slot as usize].load();
                Ok(Ctl::Next)
            }
            Op::StoreCommon { slot, src } => {
                self.com_scalars[*slot as usize].store(frame.regs[*src as usize].clone())?;
                Ok(Ctl::Next)
            }
            Op::LoadElem {
                dst,
                arr,
                subs,
                n,
                name,
                stmt,
            } => {
                let (mut buf, mut big) = ([0i64; 7], Vec::new());
                let idx = Self::gather_subs(frame, *subs, *n, &mut buf, &mut big)?;
                let obj = frame.arrays[*arr as usize].as_ref().ok_or_else(|| {
                    RuntimeError(format!(
                        "{} is not an array",
                        self.prog.names[*name as usize]
                    ))
                })?;
                let flat = obj.flat_index(idx).map_err(RuntimeError)?;
                self.note_access(obj, *name, flat, false, *stmt, ctx);
                let v = obj.get_flat(flat).to_value();
                frame.regs[*dst as usize] = v;
                Ok(Ctl::Next)
            }
            Op::StoreElem {
                arr,
                subs,
                n,
                src,
                name,
                stmt,
            } => {
                let v = frame.regs[*src as usize].clone();
                self.store_elem(frame, *arr, *subs, *n, &v, *name, *stmt, ctx)?;
                Ok(Ctl::Next)
            }
            Op::LoadElemS {
                dst,
                arr,
                slots,
                n,
                name,
                stmt,
            } => {
                let mut buf = [0i64; 7];
                let idx = Self::gather_slot_subs(frame, cu, *slots, *n, &mut buf)?;
                let obj = frame.arrays[*arr as usize].as_ref().ok_or_else(|| {
                    RuntimeError(format!(
                        "{} is not an array",
                        self.prog.names[*name as usize]
                    ))
                })?;
                let flat = obj.flat_index(idx).map_err(RuntimeError)?;
                self.note_access(obj, *name, flat, false, *stmt, ctx);
                frame.regs[*dst as usize] = obj.get_flat(flat).to_value();
                Ok(Ctl::Next)
            }
            Op::StoreElemS {
                arr,
                slots,
                n,
                src,
                name,
                stmt,
            } => {
                let mut buf = [0i64; 7];
                let idx = Self::gather_slot_subs(frame, cu, *slots, *n, &mut buf)?;
                let obj = frame.arrays[*arr as usize].as_ref().ok_or_else(|| {
                    RuntimeError(format!(
                        "{} is not an array",
                        self.prog.names[*name as usize]
                    ))
                })?;
                let flat = obj.flat_index(idx);
                if let Ok(f) = flat {
                    self.note_access(obj, *name, f, true, *stmt, ctx);
                }
                let cell = Cell::from_value(&frame.regs[*src as usize])
                    .ok_or_else(|| RuntimeError("cannot store string in array".into()))?;
                obj.set_flat(flat.map_err(RuntimeError)?, cell);
                Ok(Ctl::Next)
            }
            Op::ToInt { src, kind } => {
                let v = &frame.regs[*src as usize];
                match v.as_int() {
                    Some(i) => {
                        frame.regs[*src as usize] = Value::Int(i);
                        Ok(Ctl::Next)
                    }
                    None => err(match kind {
                        ToIntKind::LoopBound => "non-integer loop bound".to_string(),
                        ToIntKind::LoopStep => "non-integer loop step".to_string(),
                        ToIntKind::Subscript => "non-integer subscript".to_string(),
                        ToIntKind::GotoIndex => "computed GOTO index not integer".to_string(),
                        ToIntKind::DimLo(n) => {
                            format!("bad lower bound for {}", self.prog.names[*n as usize])
                        }
                        ToIntKind::DimHi(n) => {
                            format!("bad upper bound for {}", self.prog.names[*n as usize])
                        }
                    }),
                }
            }
            Op::Un { dst, op, src } => {
                let v = frame.regs[*src as usize].clone();
                frame.regs[*dst as usize] = match (op, v) {
                    (UnOp::Neg, Value::Int(x)) => Value::Int(-x),
                    (UnOp::Neg, Value::Real(x)) => Value::Real(-x),
                    (UnOp::Plus, v) => v,
                    (UnOp::Not, Value::Logical(b)) => Value::Logical(!b),
                    (op, v) => return err(format!("bad operand {v:?} for {op:?}")),
                };
                Ok(Ctl::Next)
            }
            Op::Bin { dst, op, a, b } => {
                // Exact fast paths for the numeric-hot cases (the same
                // expressions eval_binop computes for these operand
                // shapes); everything else takes the shared slow path.
                use ped_fortran::ast::BinOp as B;
                let v = match (*op, &frame.regs[*a as usize], &frame.regs[*b as usize]) {
                    (B::Add, Value::Real(x), Value::Real(y)) => Value::Real(x + y),
                    (B::Sub, Value::Real(x), Value::Real(y)) => Value::Real(x - y),
                    (B::Mul, Value::Real(x), Value::Real(y)) => Value::Real(x * y),
                    (B::Div, Value::Real(x), Value::Real(y)) => Value::Real(x / y),
                    (B::Add, Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                    (B::Sub, Value::Int(x), Value::Int(y)) => Value::Int(x - y),
                    (B::Mul, Value::Int(x), Value::Int(y)) => Value::Int(x * y),
                    (B::Lt, Value::Real(x), Value::Real(y)) => Value::Logical(x < y),
                    (B::Le, Value::Real(x), Value::Real(y)) => Value::Logical(x <= y),
                    (B::Gt, Value::Real(x), Value::Real(y)) => Value::Logical(x > y),
                    (B::Ge, Value::Real(x), Value::Real(y)) => Value::Logical(x >= y),
                    (_, x, y) => eval_binop(*op, x.clone(), y.clone())?,
                };
                frame.regs[*dst as usize] = v;
                Ok(Ctl::Next)
            }
            Op::Intrin { dst, name, args, n } => {
                // Intrinsics take at most a handful of arguments; keep
                // them on the stack instead of allocating per call.
                let n = *n as usize;
                let v = if n <= 6 {
                    let mut vals: [Value; 6] = std::array::from_fn(|_| Value::Int(0));
                    for (i, v) in vals.iter_mut().enumerate().take(n) {
                        *v = frame.regs[(*args + i as u16) as usize].clone();
                    }
                    eval_intrinsic(&self.prog.names[*name as usize], &vals[..n])?
                } else {
                    let vals: Vec<Value> = (0..n)
                        .map(|i| frame.regs[(*args + i as u16) as usize].clone())
                        .collect();
                    eval_intrinsic(&self.prog.names[*name as usize], &vals)?
                };
                frame.regs[*dst as usize] = v;
                Ok(Ctl::Next)
            }
            Op::CallFun { dst, spec } => {
                let cs = &cu.call_specs[*spec as usize];
                let mut cframe = self.frame_for(cs.unit as usize, &cs.args, Some(frame), ctx)?;
                let callee = &self.prog.units[cs.unit as usize];
                // Functions always run with in_parallel = false.
                let flow = self.exec_block(&mut cframe, callee.body_block, false, ctx)?;
                if let Flow::Jump(l) = flow {
                    return err(format!("GOTO {l} escaped function {}", cs.name));
                }
                let result = callee
                    .result_slot
                    .and_then(|s| cframe.scalars[s as usize].clone())
                    .ok_or_else(|| {
                        RuntimeError(format!("function {} did not set a result", cs.name))
                    })?;
                frame.regs[*dst as usize] = result;
                Ok(Ctl::Next)
            }
            Op::CallSub { spec } => {
                let cs = &cu.call_specs[*spec as usize];
                let mut cframe = self.frame_for(cs.unit as usize, &cs.args, Some(frame), ctx)?;
                let callee = &self.prog.units[cs.unit as usize];
                let flow = self.exec_block(&mut cframe, callee.body_block, in_parallel, ctx)?;
                if let Flow::Jump(l) = flow {
                    return err(format!("GOTO {l} escaped subroutine {}", cs.name));
                }
                // Stash callee formal values for the CopyOut ops; STOP
                // and RETURN inside a subroutine both fall through here,
                // matching the interpreter.
                let stash: Vec<Option<Value>> = cs
                    .args
                    .iter()
                    .zip(&callee.params)
                    .map(|(a, f)| match (a, f) {
                        (ArgSpec::ScalarRefVar(_), FormalSpec::Scalar(s))
                        | (ArgSpec::ScalarRefElem(_), FormalSpec::Scalar(s)) => {
                            cframe.scalars[*s as usize].clone()
                        }
                        _ => None,
                    })
                    .collect();
                ctx.rets.push(stash);
                Ok(Ctl::Next)
            }
            Op::CopyOutVar { arg, slot, common } => {
                let v = ctx.rets.last().and_then(|s| s[*arg as usize].clone());
                if let Some(v) = v {
                    if *common {
                        self.com_scalars[*slot as usize].store(v)?;
                    } else {
                        frame.scalars[*slot as usize] = Some(v);
                    }
                }
                Ok(Ctl::Next)
            }
            Op::CopyOutElem {
                arg,
                arr,
                subs,
                n,
                name,
                stmt,
            } => {
                let v = ctx.rets.last().and_then(|s| s[*arg as usize].clone());
                if let Some(v) = v {
                    self.store_elem(frame, *arr, *subs, *n, &v, *name, *stmt, ctx)?;
                }
                Ok(Ctl::Next)
            }
            Op::EndCall => {
                ctx.rets.pop();
                Ok(Ctl::Next)
            }
            Op::WriteOut { args, n } => {
                let parts: Vec<String> = (0..*n)
                    .map(|i| frame.regs[(*args + i) as usize].to_string())
                    .collect();
                self.output.lock().unwrap().push(parts.join(" "));
                Ok(Ctl::Next)
            }
            Op::ReadPop { dst } => {
                let v = self
                    .input
                    .lock()
                    .unwrap()
                    .pop_front()
                    .ok_or_else(|| RuntimeError("READ past end of input".into()))?;
                frame.regs[*dst as usize] = v;
                Ok(Ctl::Next)
            }
            Op::Jump { label } => Ok(Ctl::Label(*label)),
            Op::Br { pc } => Ok(Ctl::Goto(*pc)),
            Op::BrFalsy { src, pc } => {
                if frame.regs[*src as usize].truthy() {
                    Ok(Ctl::Next)
                } else {
                    Ok(Ctl::Goto(*pc))
                }
            }
            Op::ComputedGoto { src, labels, n } => {
                let i = Self::reg_int(frame, *src)?;
                if i >= 1 && i <= *n as i64 {
                    Ok(Ctl::Label(
                        cu.label_pool[(*labels + (i - 1) as u32) as usize],
                    ))
                } else {
                    Ok(Ctl::Next)
                }
            }
            Op::ArithIf {
                src,
                neg,
                zero,
                pos,
            } => {
                let v = frame.regs[*src as usize]
                    .as_f64()
                    .ok_or_else(|| RuntimeError("arithmetic IF on non-numeric".into()))?;
                Ok(Ctl::Label(if v < 0.0 {
                    *neg
                } else if v == 0.0 {
                    *zero
                } else {
                    *pos
                }))
            }
            Op::Ret => Ok(Ctl::Flow(Flow::Ret)),
            Op::Halt => Ok(Ctl::Flow(Flow::Stop)),
            Op::Block { block } => match self.exec_block(frame, *block, in_parallel, ctx)? {
                Flow::Normal => Ok(Ctl::Next),
                Flow::Jump(l) => Ok(Ctl::Label(l)),
                other => Ok(Ctl::Flow(other)),
            },
            Op::DoLoop { spec } => {
                self.exec_do(frame, &cu.do_specs[*spec as usize], in_parallel, ctx)
            }
            Op::Serialized { len } => {
                if !in_parallel {
                    return Ok(Ctl::Next);
                }
                // Array-element accumulation inside a parallel loop:
                // ordered by the reduction lock and exempt from shadow
                // conflict tracking (the accumulation is commutative).
                let _guard = self.reduce_lock.lock().unwrap();
                let saved = self.shadow_iter.swap(i64::MIN, Ordering::Relaxed);
                let mut r = Ok(());
                for q in pc + 1..=pc + len {
                    match self.op(frame, cu, q, in_parallel, ctx) {
                        Ok(Ctl::Next) => {}
                        Ok(_) => {
                            r = err("internal: control flow in serialized region");
                            break;
                        }
                        Err(e) => {
                            r = Err(e);
                            break;
                        }
                    }
                }
                self.shadow_iter.store(saved, Ordering::Relaxed);
                r?;
                Ok(Ctl::Goto(pc + len + 1))
            }
            Op::TryInit { slot, src, len } => {
                let mut ok = true;
                for q in pc + 1..=pc + len {
                    match self.op(frame, cu, q, false, ctx) {
                        Ok(Ctl::Next) => {}
                        // Initializer evaluation failed: leave the slot
                        // unset (the interpreter's try_const).
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    frame.scalars[*slot as usize] = Some(frame.regs[*src as usize].clone());
                }
                Ok(Ctl::Goto(pc + len + 1))
            }
            Op::AllocArr { arr, dims, ndims } => {
                let mut bounds = Vec::with_capacity(*ndims as usize);
                for i in 0..*ndims {
                    let lo = Self::reg_int(frame, *dims + (2 * i) as u16)?;
                    let hi = Self::reg_int(frame, *dims + (2 * i + 1) as u16)?;
                    bounds.push((lo, hi));
                }
                let ArraySpec::Local { proto } = &cu.arrays[*arr as usize] else {
                    return err("internal: AllocArr on non-local array");
                };
                frame.arrays[*arr as usize] = Some(Arc::new(ArrayObj::new(bounds, *proto)));
                Ok(Ctl::Next)
            }
        }
    }

    fn exec_do(
        &self,
        frame: &mut Frame,
        spec: &DoSpec,
        in_parallel: bool,
        ctx: &mut ExecCtx,
    ) -> RunResult<Ctl> {
        let lo = Self::reg_int(frame, spec.lo)?;
        let hi = Self::reg_int(frame, spec.hi)?;
        let step = match spec.step {
            Some(r) => Self::reg_int(frame, r)?,
            None => 1,
        };
        if step == 0 {
            return err("zero loop step");
        }
        let mut trips = (hi - lo + step) / step;
        if trips < 0 {
            trips = 0;
        }
        if self.opts.one_trip_do && trips == 0 {
            trips = 1;
        }
        *ctx.loop_iters.entry(spec.stmt).or_insert(0) += trips as u64;

        if spec.parallel && self.opts.validate_parallel && !in_parallel {
            return self.exec_do_validated(frame, spec, lo, step, trips, ctx);
        }
        if spec.parallel && self.opts.workers > 1 && !in_parallel && trips > 1 {
            return self.exec_do_parallel(frame, spec, lo, step, trips, ctx);
        }
        // Sequential execution.
        let traced = ctx
            .trace
            .as_ref()
            .is_some_and(|t| t.loops.contains(&spec.stmt));
        if traced {
            ctx.trace.as_mut().unwrap().iters.push((spec.stmt, 0));
        }
        let mut iv = lo;
        for k in 0..trips {
            if traced {
                ctx.trace.as_mut().unwrap().iters.last_mut().unwrap().1 = k;
            }
            frame.scalars[spec.var_slot as usize] = Some(Value::Int(iv));
            match self.exec_block(frame, spec.body, in_parallel, ctx)? {
                Flow::Normal => {}
                Flow::Jump(l) => {
                    if traced {
                        ctx.trace.as_mut().unwrap().iters.pop();
                    }
                    return Ok(Ctl::Label(l)); // jump out of the loop
                }
                other => {
                    if traced {
                        ctx.trace.as_mut().unwrap().iters.pop();
                    }
                    return Ok(Ctl::Flow(other));
                }
            }
            iv += step;
        }
        if traced {
            ctx.trace.as_mut().unwrap().iters.pop();
        }
        frame.scalars[spec.var_slot as usize] = Some(Value::Int(iv));
        Ok(Ctl::Next)
    }

    /// Deterministic DOALL validation: iterations run sequentially while
    /// the shadow tracker tags every array access with its iteration.
    fn exec_do_validated(
        &self,
        frame: &mut Frame,
        spec: &DoSpec,
        lo: i64,
        step: i64,
        trips: i64,
        ctx: &mut ExecCtx,
    ) -> RunResult<Ctl> {
        self.parallel_loops.fetch_add(1, Ordering::Relaxed);
        self.parallel_iters
            .fetch_add(trips.max(0) as u64, Ordering::Relaxed);
        *self.shadow.lock().unwrap() = Shadow::new();
        // Privatized arrays get per-worker copies in real parallel
        // execution: cross-iteration accesses to them are not races.
        let exempt: HashSet<usize> = spec
            .priv_arrays
            .iter()
            .filter_map(|a| {
                frame.arrays[*a as usize]
                    .as_ref()
                    .map(|o| Arc::as_ptr(o) as usize)
            })
            .collect();
        *self.shadow_exempt.lock().unwrap() = exempt;
        let mut iv = lo;
        for k in 0..trips {
            self.shadow_iter.store(k, Ordering::Relaxed);
            frame.scalars[spec.var_slot as usize] = Some(Value::Int(iv));
            match self.exec_block(frame, spec.body, true, ctx)? {
                Flow::Normal => {}
                other => {
                    self.shadow_iter.store(i64::MIN, Ordering::Relaxed);
                    // Early exit drops this loop's pending races — the
                    // interpreter does the same.
                    return Ok(match other {
                        Flow::Jump(l) => Ctl::Label(l),
                        f => Ctl::Flow(f),
                    });
                }
            }
            iv += step;
        }
        self.shadow_iter.store(i64::MIN, Ordering::Relaxed);
        frame.scalars[spec.var_slot as usize] = Some(Value::Int(iv));
        let shadow = std::mem::take(&mut *self.shadow.lock().unwrap());
        if !shadow.races.is_empty() {
            self.race_log.lock().unwrap().extend(shadow.races);
        }
        Ok(Ctl::Next)
    }

    fn exec_do_parallel(
        &self,
        frame: &mut Frame,
        spec: &DoSpec,
        lo: i64,
        step: i64,
        trips: i64,
        ctx: &ExecCtx,
    ) -> RunResult<Ctl> {
        self.parallel_loops.fetch_add(1, Ordering::Relaxed);
        self.parallel_iters
            .fetch_add(trips as u64, Ordering::Relaxed);
        let workers = self.opts.workers.min(trips as usize).max(1);
        let chunk = (trips as usize).div_ceil(workers);
        let chunks: Vec<Chunk> = (0..workers)
            .map(|w| w * chunk..((w + 1) * chunk).min(trips as usize))
            .take_while(|r| !r.is_empty())
            .map(|range| {
                let mut wframe = frame.clone();
                // Privatize killed local arrays: each worker writes its
                // own copy (contents are dead after the loop). The R(0.0)
                // prototype matches the interpreter's privatized copies.
                for a in &spec.priv_arrays {
                    if let Some(orig) = &wframe.arrays[*a as usize] {
                        let fresh = Arc::new(ArrayObj::new(orig.dims.clone(), Cell::R(0.0)));
                        fresh.restore(orig.snapshot());
                        wframe.arrays[*a as usize] = Some(fresh);
                    }
                }
                // Initialize scalar reduction accumulators to identity.
                for (slot, op) in &spec.scalar_reds {
                    let current = wframe.scalars[*slot as usize].clone();
                    wframe.scalars[*slot as usize] = Some(identity_of(*op, current.as_ref()));
                }
                Chunk {
                    body: spec.body,
                    var_slot: spec.var_slot,
                    lo,
                    step,
                    range,
                    frame: wframe,
                }
            })
            .collect();
        let results: Vec<RunResult<Frame>> = match &self.team {
            Some(team) if !ctx.in_team => self.run_on_team(team, chunks),
            // A DOALL inside a FUNCTION called from a DOALL body: this
            // thread already runs a team chunk, so it runs these chunks
            // itself, in worker order.
            _ => chunks.into_iter().map(|c| self.run_chunk(c)).collect(),
        };
        let mut worker_frames = Vec::with_capacity(results.len());
        for r in results {
            worker_frames.push(r?);
        }
        // Combine scalar reductions: global = global ⊕ partials.
        for (slot, op) in &spec.scalar_reds {
            let mut acc = frame.scalars[*slot as usize]
                .clone()
                .unwrap_or_else(|| identity_of(*op, None));
            for wf in &worker_frames {
                if let Some(part) = &wf.scalars[*slot as usize] {
                    acc = combine(*op, &acc, part)?;
                }
            }
            frame.scalars[*slot as usize] = Some(acc);
        }
        // Last-iteration copy-out: adopt the final worker's scalars
        // (privatized values; reductions already merged above).
        if let Some(last) = worker_frames.last() {
            for (slot, v) in last.scalars.iter().enumerate() {
                if spec.scalar_reds.iter().any(|(s, _)| *s as usize == slot) {
                    continue;
                }
                if let Some(v) = v {
                    frame.scalars[slot] = Some(v.clone());
                }
            }
        }
        frame.scalars[spec.var_slot as usize] = Some(Value::Int(lo + trips * step));
        Ok(Ctl::Next)
    }

    /// Post chunks 1.. to the team's members, run chunk 0 here, and
    /// collect every result in worker order. Every posted chunk reports
    /// before this returns, so the next DOALL finds all members idle.
    fn run_on_team(&self, team: &Team, chunks: Vec<Chunk>) -> Vec<RunResult<Frame>> {
        assert!(chunks.len() <= team.slots.len() + 1, "one chunk per worker");
        let mut chunks = chunks.into_iter();
        let first = chunks.next().expect("a parallel DOALL has a chunk");
        let mut posted = 0;
        for (slot, c) in team.slots.iter().zip(chunks) {
            slot.post(c);
            posted += 1;
        }
        let mut results = Vec::with_capacity(posted + 1);
        results.push(self.run_chunk(first));
        for slot in &team.slots[..posted] {
            match slot.result() {
                Ok(r) => results.push(r),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        results
    }
}
