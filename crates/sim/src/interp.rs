//! The behavioral interpreter: evaluates an elaborated [`Design`] with
//! two-state values, combinational fix-point settling, and two-phase
//! non-blocking updates on clock edges.
//!
//! Scheduling model (a deterministic subset of the Verilog stratified
//! event queue, sufficient for synthesizable RTL):
//!
//! 1. [`Sim::new`] zero-initializes signals (or their declared
//!    initializers), runs `initial` blocks once, then settles.
//! 2. [`Sim::set`] changes an input and propagates it:
//!    combinational processes re-run to a fix-point, then any clocked
//!    process whose event expression saw a matching edge executes —
//!    blocking assignments apply immediately, non-blocking assignments
//!    are buffered and applied together afterwards — and the loop
//!    repeats until no further edges fire (this handles derived clocks).
//!
//! Runtime faults (division handled as 0, reversed part selects,
//! statement-budget exhaustion from runaway loops, width overflows in
//! concatenation) surface as [`SimError`]s; the harness reports them as
//! functional failures.

use crate::elab::{Design, Process, SignalId, SignalKind, SimError, SimResult};
use crate::value::BitVec;
use verispec_verilog::ast::{
    BinaryOp, CaseKind, Edge, Expr, LValue, Literal, Range, Stmt, UnaryOp,
};

/// Statements one simulation may execute in total — every activation of
/// every process, from [`Sim::new`] to the last input change — before
/// it is reported as a runaway loop. A budget per activation let a
/// legal 65,535-iteration `for` run in full on every settle sweep of
/// every vector: 2.4 s for one judged sample. The largest total any of
/// the 46 reference solutions spends in one judged simulation is 931
/// statements (`vgen_11_bit_reverse`, at every judge seed the tests
/// use); this is over 50× that, and still less than one pass of that
/// loop.
const STMT_BUDGET: usize = 50_000;

/// Cap on propagate rounds (edge cascades) per input change.
const EDGE_ROUNDS: usize = 64;

/// Cap on combinational settle sweeps per round.
const SETTLE_SWEEPS: usize = 128;

/// A running simulation of one design.
#[derive(Debug, Clone)]
pub struct Sim<'d> {
    design: &'d Design,
    values: Vec<BitVec>,
    mems: Vec<Option<Vec<BitVec>>>,
    /// Snapshot of event-source signals for edge detection.
    edge_snapshot: Vec<(SignalId, bool)>,
    /// Statements left of the simulation's [`STMT_BUDGET`].
    budget: usize,
}

/// A buffered non-blocking write, resolved at schedule time.
#[derive(Debug, Clone)]
enum WriteOp {
    Full(SignalId, BitVec),
    Bits(SignalId, u32, u32, BitVec),
    Mem(SignalId, u64, BitVec),
}

impl<'d> Sim<'d> {
    /// Initializes state, runs `initial` blocks, and settles.
    ///
    /// # Errors
    ///
    /// Propagates runtime faults from `initial` blocks or settling.
    pub fn new(design: &'d Design) -> SimResult<Self> {
        let mut values = Vec::with_capacity(design.signals().len());
        let mut mems = Vec::with_capacity(design.signals().len());
        for sig in design.signals() {
            let v = sig.init.unwrap_or_else(|| BitVec::zero(sig.width));
            values.push(v.with_signed(sig.signed));
            mems.push(match sig.kind {
                SignalKind::Memory { depth, .. } => {
                    Some(vec![BitVec::zero(sig.width); depth as usize])
                }
                _ => None,
            });
        }
        let mut sim = Self {
            design,
            values,
            mems,
            edge_snapshot: Vec::new(),
            budget: STMT_BUDGET,
        };
        // Run initial blocks once (blocking semantics).
        for p in &design.processes {
            if let Process::Initial { body } = p {
                let mut nba = Vec::new();
                sim.exec_stmt(body, &mut nba)?;
                sim.apply_writes(nba);
            }
        }
        sim.settle()?;
        sim.edge_snapshot = sim.snapshot_event_sources();
        Ok(sim)
    }

    /// The design being simulated.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// Reads a signal's current value.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is not a signal.
    pub fn get(&self, name: &str) -> SimResult<u64> {
        let id = self
            .design
            .signal_id(name)
            .ok_or_else(|| SimError::new(format!("no signal `{name}`")))?;
        Ok(self.values[id].value())
    }

    /// Sets an input and propagates (settle + edge-triggered processes).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names, non-input targets, or runtime
    /// faults during propagation.
    pub fn set(&mut self, name: &str, value: u64) -> SimResult<()> {
        let id = self
            .design
            .signal_id(name)
            .ok_or_else(|| SimError::new(format!("no signal `{name}`")))?;
        let sig = self.design.signal(id);
        if sig.dir != Some(verispec_verilog::ast::Direction::Input) {
            return Err(SimError::new(format!("`{name}` is not an input port")));
        }
        self.values[id] = BitVec::new(sig.width, value).with_signed(sig.signed);
        self.propagate()
    }

    /// Pulses `clock` low→high→low, propagating after each transition.
    ///
    /// # Errors
    ///
    /// See [`Sim::set`].
    pub fn clock_pulse(&mut self, clock: &str) -> SimResult<()> {
        self.set(clock, 1)?;
        self.set(clock, 0)
    }

    /// Runs combinational processes to a fix-point, then fires clocked
    /// processes whose event sources changed, repeating until quiescent.
    ///
    /// # Errors
    ///
    /// Returns an error if the design oscillates or a process faults.
    fn propagate(&mut self) -> SimResult<()> {
        let design = self.design;
        for _round in 0..EDGE_ROUNDS {
            self.settle()?;
            let now = self.snapshot_event_sources();
            let triggered = self.detect_edges(&now);
            self.edge_snapshot = now;
            if triggered.is_empty() {
                return Ok(());
            }
            let mut nba = Vec::new();
            for pi in triggered {
                if let Process::Clocked { body, .. } = &design.processes[pi] {
                    self.exec_stmt(body, &mut nba)?;
                }
            }
            self.apply_writes(nba);
        }
        Err(SimError::new(
            "edge cascade did not quiesce (derived-clock loop?)",
        ))
    }

    /// Evaluates continuous assignments and combinational always blocks
    /// until no signal changes.
    ///
    /// # Errors
    ///
    /// Returns an error on oscillation or runtime faults.
    fn settle(&mut self) -> SimResult<()> {
        let design = self.design;
        for _ in 0..SETTLE_SWEEPS {
            let before = self.values.clone();
            for p in &design.processes {
                match p {
                    Process::Assign { lhs, rhs } => {
                        let v = self.eval_for_assign(lhs, rhs)?;
                        self.write_lvalue_now(lhs, v)?;
                    }
                    Process::Comb { body } => {
                        // Combinational always blocks use blocking
                        // assignments; NBAs inside them are applied at the
                        // end of the activation.
                        let mut nba = Vec::new();
                        self.exec_stmt(body, &mut nba)?;
                        self.apply_writes(nba);
                    }
                    _ => {}
                }
            }
            if self.values == before {
                return Ok(());
            }
        }
        Err(SimError::new(
            "combinational logic did not settle (oscillation)",
        ))
    }

    fn snapshot_event_sources(&self) -> Vec<(SignalId, bool)> {
        let mut snap = Vec::new();
        for p in &self.design.processes {
            if let Process::Clocked { events, .. } = p {
                for &(sig, _) in events {
                    snap.push((sig, self.values[sig].is_true()));
                }
            }
        }
        snap
    }

    /// Indices of clocked processes with a matching edge between the
    /// stored snapshot and `now`.
    fn detect_edges(&self, now: &[(SignalId, bool)]) -> Vec<usize> {
        // Rebuild the per-process mapping in the same order as
        // snapshot_event_sources.
        let mut triggered = Vec::new();
        let mut cursor = 0usize;
        for (pi, p) in self.design.processes.iter().enumerate() {
            if let Process::Clocked { events, .. } = p {
                let mut fire = false;
                for &(_, edge) in events {
                    let old = self
                        .edge_snapshot
                        .get(cursor)
                        .map(|&(_, v)| v)
                        .unwrap_or(false);
                    let new = now[cursor].1;
                    cursor += 1;
                    let matches = match edge {
                        Edge::Pos => !old && new,
                        Edge::Neg => old && !new,
                    };
                    fire |= matches;
                }
                if fire {
                    triggered.push(pi);
                }
            }
        }
        triggered
    }

    fn apply_writes(&mut self, writes: Vec<WriteOp>) {
        for w in writes {
            match w {
                WriteOp::Full(id, v) => {
                    let sig = self.design.signal(id);
                    self.values[id] = v.resize(sig.width).with_signed(sig.signed);
                }
                WriteOp::Bits(id, msb, lsb, v) => {
                    self.values[id] = self.values[id].splice(msb, lsb, v);
                }
                WriteOp::Mem(id, addr, v) => {
                    if let SignalKind::Memory { depth, lo } = self.design.signal(id).kind {
                        if addr >= lo && addr - lo < depth as u64 {
                            let w = self.design.signal(id).width;
                            if let Some(mem) = &mut self.mems[id] {
                                mem[(addr - lo) as usize] = v.resize(w);
                            }
                        }
                        // Out-of-range writes are dropped (x-address in
                        // four-state Verilog).
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    fn exec_stmt(&mut self, stmt: &Stmt, nba: &mut Vec<WriteOp>) -> SimResult<()> {
        if self.budget == 0 {
            return Err(SimError::new("statement budget exceeded (runaway loop?)"));
        }
        self.budget -= 1;
        match stmt {
            Stmt::Block { stmts, .. } => {
                for s in stmts {
                    self.exec_stmt(s, nba)?;
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.is_true() {
                    self.exec_stmt(then_branch, nba)?;
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e, nba)?;
                }
            }
            Stmt::Case {
                kind,
                scrutinee,
                arms,
                default,
            } => {
                let scrut = self.eval(scrutinee)?;
                let mut matched = false;
                'arms: for arm in arms {
                    for label in &arm.labels {
                        if self.case_label_matches(*kind, &scrut, label)? {
                            self.exec_stmt(&arm.body, nba)?;
                            matched = true;
                            break 'arms;
                        }
                    }
                }
                if !matched {
                    if let Some(d) = default {
                        self.exec_stmt(d, nba)?;
                    }
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.exec_stmt(init, nba)?;
                while self.eval(cond)?.is_true() {
                    self.exec_stmt(body, nba)?;
                    self.exec_stmt(step, nba)?;
                    if self.budget == 0 {
                        return Err(SimError::new("statement budget exceeded in for loop"));
                    }
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.is_true() {
                    self.exec_stmt(body, nba)?;
                    if self.budget == 0 {
                        return Err(SimError::new("statement budget exceeded in while loop"));
                    }
                }
            }
            Stmt::Repeat { count, body } => {
                let n = self.eval(count)?.value();
                for _ in 0..n {
                    self.exec_stmt(body, nba)?;
                    if self.budget == 0 {
                        return Err(SimError::new("statement budget exceeded in repeat loop"));
                    }
                }
            }
            Stmt::Blocking { lhs, rhs } => {
                let v = self.eval_for_assign(lhs, rhs)?;
                self.write_lvalue_now(lhs, v)?;
            }
            Stmt::NonBlocking { lhs, rhs } => {
                let v = self.eval_for_assign(lhs, rhs)?;
                self.schedule_lvalue(lhs, v, nba)?;
            }
            Stmt::Null => {}
        }
        Ok(())
    }

    fn case_label_matches(
        &mut self,
        kind: CaseKind,
        scrut: &BitVec,
        label: &Expr,
    ) -> SimResult<bool> {
        if let Expr::Number(lit) = label {
            let wildcard = wildcard_mask(kind, lit);
            if wildcard != 0 {
                let w = scrut.width().max(lit.effective_width());
                let care = !wildcard;
                let s = scrut.resize(w).value() & care;
                let l = lit.value & care;
                return Ok(s == l);
            }
        }
        let lv = self.eval(label)?;
        Ok(scrut.eq(lv).is_true())
    }

    // ------------------------------------------------------------------
    // L-value writes
    // ------------------------------------------------------------------

    fn write_lvalue_now(&mut self, lv: &LValue, value: BitVec) -> SimResult<()> {
        let mut ops = Vec::new();
        self.resolve_lvalue(lv, value, &mut ops)?;
        self.apply_writes(ops);
        Ok(())
    }

    fn schedule_lvalue(
        &mut self,
        lv: &LValue,
        value: BitVec,
        nba: &mut Vec<WriteOp>,
    ) -> SimResult<()> {
        self.resolve_lvalue(lv, value, nba)
    }

    /// Resolves an l-value into concrete write operations, evaluating
    /// index expressions against current state.
    fn resolve_lvalue(
        &mut self,
        lv: &LValue,
        value: BitVec,
        out: &mut Vec<WriteOp>,
    ) -> SimResult<()> {
        match lv {
            LValue::Ident(name) => {
                let id = self.lookup(name)?;
                out.push(WriteOp::Full(id, value));
            }
            LValue::Bit(name, idx) => {
                let id = self.lookup(name)?;
                let i = self.eval(idx)?.value();
                match self.design.signal(id).kind {
                    SignalKind::Memory { .. } => out.push(WriteOp::Mem(id, i, value)),
                    _ => {
                        let w = self.design.signal(id).width as u64;
                        if i < w {
                            out.push(WriteOp::Bits(id, i as u32, i as u32, value));
                        }
                        // Out-of-range bit writes are dropped.
                    }
                }
            }
            LValue::Part(name, range) => {
                let id = self.lookup(name)?;
                let (msb, lsb) = self.eval_range(range)?;
                out.push(WriteOp::Bits(id, msb, lsb, value));
            }
            LValue::IndexedPart {
                name,
                base,
                width,
                ascending,
            } => {
                let id = self.lookup(name)?;
                let b = self.eval(base)?.value() as u32;
                let w = self.eval(width)?.value() as u32;
                if w == 0 {
                    return Err(SimError::new("zero-width part select"));
                }
                let (msb, lsb) = if *ascending {
                    (b + w - 1, b)
                } else {
                    (b, b.saturating_sub(w - 1))
                };
                out.push(WriteOp::Bits(id, msb, lsb, value));
            }
            LValue::Concat(parts) => {
                // Distribute value bits MSB-first across the parts.
                let widths: Vec<u32> = parts
                    .iter()
                    .map(|p| self.lvalue_width(p))
                    .collect::<SimResult<_>>()?;
                let total: u32 = widths.iter().sum();
                let value = value.resize(total);
                let mut hi = total;
                for (p, w) in parts.iter().zip(widths) {
                    let lo = hi - w;
                    let field = value.slice(hi - 1, lo);
                    self.resolve_lvalue(p, field, out)?;
                    hi = lo;
                }
            }
        }
        Ok(())
    }

    fn lvalue_width(&mut self, lv: &LValue) -> SimResult<u32> {
        Ok(match lv {
            LValue::Ident(name) => {
                let id = self.lookup(name)?;
                self.design.signal(id).width
            }
            LValue::Bit(name, _) => {
                let id = self.lookup(name)?;
                match self.design.signal(id).kind {
                    SignalKind::Memory { .. } => self.design.signal(id).width,
                    _ => 1,
                }
            }
            LValue::Part(_, range) => {
                let (msb, lsb) = self.eval_range(range)?;
                msb - lsb + 1
            }
            LValue::IndexedPart { width, .. } => self.eval(width)?.value() as u32,
            LValue::Concat(parts) => {
                let mut total = 0u32;
                for p in parts {
                    total += self.lvalue_width(p)?;
                }
                total
            }
        })
    }

    fn eval_range(&mut self, range: &Range) -> SimResult<(u32, u32)> {
        let msb = self.eval(&range.msb)?.value();
        let lsb = self.eval(&range.lsb)?.value();
        if msb < lsb {
            return Err(SimError::new(format!("reversed part select [{msb}:{lsb}]")));
        }
        if msb >= 64 {
            return Err(SimError::new(format!(
                "part select [{msb}:{lsb}] out of range"
            )));
        }
        Ok((msb as u32, lsb as u32))
    }

    fn lookup(&self, name: &str) -> SimResult<SignalId> {
        self.design
            .signal_id(name)
            .ok_or_else(|| SimError::new(format!("`{name}` is not declared")))
    }

    // ------------------------------------------------------------------
    // Expression evaluation
    // ------------------------------------------------------------------

    /// Evaluates the right-hand side of an assignment with Verilog's
    /// context-determined width rules: arithmetic on the RHS is carried
    /// out at `max(lhs width, rhs self-determined width)`, so idioms like
    /// `assign {cout, s} = a + b;` capture the carry exactly as iverilog
    /// would.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sim::eval`], plus widths above 64 bits.
    fn eval_for_assign(&mut self, lhs: &LValue, rhs: &Expr) -> SimResult<BitVec> {
        let lw = self.lvalue_width(lhs)?;
        let rw = self.self_width(rhs)?;
        let ctx = lw.max(rw);
        if ctx > 64 {
            return Err(SimError::new(format!(
                "assignment context width {ctx} exceeds the 64-bit limit"
            )));
        }
        self.eval_ctx(rhs, ctx)
    }

    /// The self-determined width of an expression (IEEE 1364 Table 5-22,
    /// restricted to the supported subset).
    fn self_width(&mut self, e: &Expr) -> SimResult<u32> {
        use verispec_verilog::ast::BinaryOp as B;
        use verispec_verilog::ast::UnaryOp as U;
        Ok(match e {
            Expr::Number(l) => l.effective_width(),
            Expr::Ident(name) => {
                if let Some(id) = self.design.signal_id(name) {
                    self.design.signal(id).width
                } else if let Some(v) = self.design.params.get(name) {
                    v.width()
                } else {
                    return Err(SimError::new(format!("`{name}` is not declared")));
                }
            }
            Expr::Unary(op, a) => match op {
                U::Plus | U::Minus | U::BitNot => self.self_width(a)?,
                _ => 1, // logical not and reductions
            },
            Expr::Binary(op, a, b) => match op {
                B::Add
                | B::Sub
                | B::Mul
                | B::Div
                | B::Mod
                | B::BitAnd
                | B::BitOr
                | B::BitXor
                | B::BitXnor => self.self_width(a)?.max(self.self_width(b)?),
                B::Shl | B::Shr | B::AShl | B::AShr | B::Pow => self.self_width(a)?,
                _ => 1, // comparisons, logical and/or
            },
            Expr::Ternary(_, t, f) => self.self_width(t)?.max(self.self_width(f)?),
            Expr::Bit(name, _) => {
                let id = self.lookup(name)?;
                match self.design.signal(id).kind {
                    SignalKind::Memory { .. } => self.design.signal(id).width,
                    _ => 1,
                }
            }
            Expr::Part(_, range) => {
                let (msb, lsb) = self.eval_range(range)?;
                msb - lsb + 1
            }
            Expr::IndexedPart { width, .. } => {
                let w = self.eval(width)?.value();
                if w == 0 || w > 64 {
                    return Err(SimError::new("bad indexed part-select width"));
                }
                w as u32
            }
            Expr::Concat(items) => {
                let mut total = 0u32;
                for item in items {
                    total = total.saturating_add(self.self_width(item)?);
                }
                total
            }
            Expr::Repeat(count, items) => {
                let n = self.eval(count)?.value().min(65) as u32;
                let mut one = 0u32;
                for item in items {
                    one = one.saturating_add(self.self_width(item)?);
                }
                one.saturating_mul(n)
            }
            Expr::SysCall(_, args) => match args.as_slice() {
                [a] => self.self_width(a)?,
                _ => 32,
            },
        })
    }

    /// Evaluates an expression against current state at its
    /// self-determined width.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported system calls, width overflows,
    /// and reversed part selects.
    pub fn eval(&mut self, e: &Expr) -> SimResult<BitVec> {
        let w = self.self_width(e)?;
        if w == 0 || w > 64 {
            return Err(SimError::new(format!("expression width {w} unsupported")));
        }
        self.eval_ctx(e, w)
    }

    /// Evaluates `e` under a context width: context-determined operands
    /// (arithmetic, bitwise, ternary branches, unary +/-/~) are widened
    /// to `ctx` *before* the operation; self-determined positions
    /// (comparison operands, shift amounts, concatenations, indices,
    /// reduction operands) are evaluated at their own width.
    fn eval_ctx(&mut self, e: &Expr, ctx: u32) -> SimResult<BitVec> {
        match e {
            Expr::Number(l) => Ok(literal_value(l).resize(ctx)),
            Expr::Ident(name) => {
                if let Some(id) = self.design.signal_id(name) {
                    Ok(self.values[id].resize(ctx))
                } else if let Some(v) = self.design.params.get(name) {
                    Ok(v.resize(ctx))
                } else {
                    Err(SimError::new(format!("`{name}` is not declared")))
                }
            }
            Expr::Unary(op, a) => Ok(match op {
                // Context-determined operand.
                UnaryOp::Plus => self.eval_ctx(a, ctx)?,
                UnaryOp::Minus => self.eval_ctx(a, ctx)?.neg(),
                UnaryOp::BitNot => self.eval_ctx(a, ctx)?.not(),
                // Self-determined operand, 1-bit result widened to ctx.
                UnaryOp::Not => BitVec::from_bool(!self.eval(a)?.is_true()).resize(ctx),
                UnaryOp::RedAnd => self.eval(a)?.reduce_and().resize(ctx),
                UnaryOp::RedOr => self.eval(a)?.reduce_or().resize(ctx),
                UnaryOp::RedXor => self.eval(a)?.reduce_xor().resize(ctx),
                UnaryOp::RedNand => self.eval(a)?.reduce_and().not().resize(ctx),
                UnaryOp::RedNor => self.eval(a)?.reduce_or().not().resize(ctx),
                UnaryOp::RedXnor => self.eval(a)?.reduce_xor().not().resize(ctx),
            }),
            Expr::Binary(op, a, b) => {
                use BinaryOp::*;
                match op {
                    // Context-determined: both operands widened to ctx.
                    Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | BitXnor => {
                        let x = self.eval_ctx(a, ctx)?;
                        let y = self.eval_ctx(b, ctx)?;
                        Ok(match op {
                            Add => x.add(y),
                            Sub => x.sub(y),
                            Mul => x.mul(y),
                            Div => x.div(y),
                            Mod => x.rem(y),
                            BitAnd => x.and(y),
                            BitOr => x.or(y),
                            BitXor => x.xor(y),
                            _ => x.xor(y).not(),
                        })
                    }
                    // Left operand context-determined, right self-determined.
                    Shl | AShl | Shr | AShr | Pow => {
                        let x = self.eval_ctx(a, ctx)?;
                        let y = self.eval(b)?;
                        Ok(match op {
                            Shl | AShl => x.shl(y),
                            Shr => x.shr(y),
                            AShr => x.ashr(y),
                            _ => x.pow(y),
                        })
                    }
                    // Comparisons: operands sized to their common width,
                    // 1-bit result widened to ctx.
                    Lt | Le | Gt | Ge | Eq | Ne | CaseEq | CaseNe => {
                        let w = self.self_width(a)?.max(self.self_width(b)?).min(64);
                        let x = self.eval_ctx(a, w)?;
                        let y = self.eval_ctx(b, w)?;
                        let r = match op {
                            Lt => x.lt(y),
                            Le => BitVec::from_bool(!y.lt(x).is_true()),
                            Gt => y.lt(x),
                            Ge => BitVec::from_bool(!x.lt(y).is_true()),
                            Eq | CaseEq => x.eq(y),
                            _ => BitVec::from_bool(!x.eq(y).is_true()),
                        };
                        Ok(r.resize(ctx))
                    }
                    // Logical: operands self-determined, boolean result.
                    LogAnd => {
                        let x = self.eval(a)?.is_true();
                        let y = self.eval(b)?.is_true();
                        Ok(BitVec::from_bool(x && y).resize(ctx))
                    }
                    LogOr => {
                        let x = self.eval(a)?.is_true();
                        let y = self.eval(b)?.is_true();
                        Ok(BitVec::from_bool(x || y).resize(ctx))
                    }
                }
            }
            Expr::Ternary(c, t, f) => {
                // Condition is self-determined; branches share the context.
                if self.eval(c)?.is_true() {
                    self.eval_ctx(t, ctx)
                } else {
                    self.eval_ctx(f, ctx)
                }
            }
            Expr::Bit(name, idx) => {
                let id = self.lookup(name)?;
                let i = self.eval(idx)?.value();
                let v = match self.design.signal(id).kind {
                    SignalKind::Memory { depth, lo } => {
                        if i >= lo && i - lo < depth as u64 {
                            self.mems[id].as_ref().expect("memory storage")[(i - lo) as usize]
                        } else {
                            BitVec::zero(self.design.signal(id).width)
                        }
                    }
                    _ => self.values[id].bit(i.min(u32::MAX as u64) as u32),
                };
                Ok(v.resize(ctx))
            }
            Expr::Part(name, range) => {
                let id = self.lookup(name)?;
                let (msb, lsb) = self.eval_range(range)?;
                Ok(self.values[id].slice(msb, lsb).resize(ctx))
            }
            Expr::IndexedPart {
                name,
                base,
                width,
                ascending,
            } => {
                let id = self.lookup(name)?;
                let b = self.eval(base)?.value() as u32;
                let w = self.eval(width)?.value() as u32;
                if w == 0 || w > 64 {
                    return Err(SimError::new("bad indexed part-select width"));
                }
                let (msb, lsb) = if *ascending {
                    (b + w - 1, b)
                } else {
                    (b, b.saturating_sub(w - 1))
                };
                Ok(self.values[id].slice(msb, lsb).resize(ctx))
            }
            Expr::Concat(items) => {
                // Concatenations are self-determined islands.
                let mut acc: Option<BitVec> = None;
                for item in items {
                    let v = self.eval(item)?;
                    acc = Some(match acc {
                        None => v,
                        Some(a) => {
                            if a.width() + v.width() > 64 {
                                return Err(SimError::new("concatenation exceeds 64 bits"));
                            }
                            a.concat(v)
                        }
                    });
                }
                Ok(acc
                    .ok_or_else(|| SimError::new("empty concatenation"))?
                    .resize(ctx))
            }
            Expr::Repeat(count, items) => {
                let n = self.eval(count)?.value();
                let mut acc: Option<BitVec> = None;
                for _ in 0..n {
                    for item in items {
                        let v = self.eval(item)?;
                        acc = Some(match acc {
                            None => v,
                            Some(a) => {
                                if a.width() + v.width() > 64 {
                                    return Err(SimError::new("replication exceeds 64 bits"));
                                }
                                a.concat(v)
                            }
                        });
                    }
                }
                Ok(acc
                    .ok_or_else(|| SimError::new("zero-count replication"))?
                    .resize(ctx))
            }
            Expr::SysCall(name, args) => match (name.as_str(), args.as_slice()) {
                // $signed/$unsigned change interpretation at the operand's
                // self width, then context extension applies.
                ("$signed", [a]) => Ok(self.eval(a)?.with_signed(true).resize(ctx)),
                ("$unsigned", [a]) => Ok(self.eval(a)?.with_signed(false).resize(ctx)),
                _ => Err(SimError::new(format!(
                    "system call `{name}` is not supported in expressions"
                ))),
            },
        }
    }
}

/// Two-state value of a literal (x/z bits read 0).
fn literal_value(l: &Literal) -> BitVec {
    BitVec::new(l.effective_width(), l.value).with_signed(l.signed)
}

/// Bits of a case label that are wildcards under the given case kind.
fn wildcard_mask(kind: CaseKind, lit: &Literal) -> u64 {
    match kind {
        CaseKind::Case => 0,
        CaseKind::Casez => lit.z_mask,
        CaseKind::Casex => lit.x_mask | lit.z_mask,
    }
}
