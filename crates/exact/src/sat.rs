//! A hand-rolled CDCL SAT solver.
//!
//! The build environment is fully offline, so no solver crate can be pulled
//! in; this is a compact conflict-driven clause-learning solver with the
//! standard machinery — two watched literals, first-UIP conflict analysis
//! with backjumping, VSIDS-style activity decisions with phase saving, and
//! geometric restarts. It is sized for the exact backend's encodings (10³–
//! 10⁵ variables, 10⁴–10⁶ clauses), not for competition instances.
//!
//! Cancellation is cooperative: the caller's [`CancelToken`] is polled every
//! few hundred conflicts and decisions, so a solve stops within
//! milliseconds of its deadline.

use himap_mapper::CancelToken;

/// A propositional literal: variable index with a sign bit in bit 0
/// (`2·var` is the positive literal, `2·var + 1` the negation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lit(pub u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    /// The negative literal of `var`.
    pub fn neg(var: u32) -> Lit {
        Lit((var << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Whether this is a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Truth value of a variable during search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

/// The outcome of [`Solver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; carries one model (`model[var]` is the assignment).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// The cancel token fired mid-search.
    Cancelled,
}

/// Conflict-driven clause-learning solver over a fixed variable count.
pub struct Solver {
    num_vars: usize,
    /// Clause database; learnt clauses are appended after the originals.
    clauses: Vec<Vec<Lit>>,
    /// `watches[lit]`: clauses currently watching `lit`.
    watches: Vec<Vec<u32>>,
    assign: Vec<Value>,
    /// Saved phase per variable (last assigned polarity).
    phase: Vec<bool>,
    level: Vec<u32>,
    /// Reason clause of each implied variable (`u32::MAX` for decisions).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Level-0 contradiction discovered while loading clauses.
    unsat_on_load: bool,
    /// Statistics: conflicts seen (also the cancellation poll clock).
    pub conflicts: u64,
    /// Statistics: decisions taken.
    pub decisions: u64,
    /// Statistics: literals propagated.
    pub propagations: u64,
}

/// Poll mask for cancellation inside the search loop.
const CANCEL_MASK: u64 = 255;

/// Literal value under an assignment — the free-function form of
/// [`Solver::value_of`], so callers can split the struct borrow.
fn lit_value(assign: &[Value], lit: Lit) -> Value {
    match assign[lit.var() as usize] {
        Value::Unassigned => Value::Unassigned,
        Value::True => {
            if lit.is_neg() {
                Value::False
            } else {
                Value::True
            }
        }
        Value::False => {
            if lit.is_neg() {
                Value::True
            } else {
                Value::False
            }
        }
    }
}

impl Solver {
    /// A solver over `num_vars` variables and no clauses.
    pub fn new(num_vars: usize) -> Solver {
        Solver {
            num_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); num_vars * 2],
            assign: vec![Value::Unassigned; num_vars],
            phase: vec![false; num_vars],
            level: vec![0; num_vars],
            reason: vec![u32::MAX; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; num_vars],
            act_inc: 1.0,
            unsat_on_load: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses (originals + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    fn value_of(&self, lit: Lit) -> Value {
        match self.assign[lit.var() as usize] {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if lit.is_neg() {
                    Value::False
                } else {
                    Value::True
                }
            }
            Value::False => {
                if lit.is_neg() {
                    Value::True
                } else {
                    Value::False
                }
            }
        }
    }

    /// Adds a clause. Tautologies are dropped, duplicate literals deduped;
    /// the empty clause (or a falsified unit at level 0) marks the instance
    /// unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(self.trail_lim.is_empty(), "clauses must be added before solving");
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_by_key(|l| l.0);
        clause.dedup();
        // Tautology: both polarities of some variable.
        if clause.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        // Drop literals already false at level 0; satisfied clauses vanish.
        clause.retain(|&l| self.value_of(l) != Value::False);
        if clause.iter().any(|&l| self.value_of(l) == Value::True) {
            return;
        }
        match clause.len() {
            0 => self.unsat_on_load = true,
            1 => {
                // Level-0 unit: assign immediately, then propagate lazily in
                // `solve` (the unit may contradict a later unit).
                if self.value_of(clause[0]) == Value::Unassigned {
                    self.enqueue(clause[0], u32::MAX);
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[clause[0].negated().index()].push(idx);
                self.watches[clause[1].negated().index()].push(idx);
                self.clauses.push(clause);
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        let var = lit.var() as usize;
        debug_assert_eq!(self.assign[var], Value::Unassigned);
        self.assign[var] = if lit.is_neg() { Value::False } else { Value::True };
        self.phase[var] = !lit.is_neg();
        self.level[var] = self.trail_lim.len() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // `lit` became true, so clauses watching `lit.negated()`'s
            // falsification live in `watches[lit]` under our convention:
            // a clause watching literal `w` registers under `w.negated()`.
            let mut watchers = std::mem::take(&mut self.watches[lit.index()]);
            let mut keep = 0usize;
            let mut conflict: Option<u32> = None;
            'clauses: for wi in 0..watchers.len() {
                let ci = watchers[wi];
                // Normalize: the falsified watch into position 1. Field
                // borrows are split by hand (`lit_value` on `assign`) so
                // the clause can stay mutably borrowed during the scan.
                let falsified = lit.negated();
                {
                    let clause = &mut self.clauses[ci as usize];
                    if clause[0] == falsified {
                        clause.swap(0, 1);
                    }
                    debug_assert_eq!(clause[1], falsified);
                    // Satisfied by the other watch: keep watching.
                    let first = clause[0];
                    if lit_value(&self.assign, first) == Value::True {
                        watchers[keep] = ci;
                        keep += 1;
                        continue;
                    }
                    // Find a new watchable literal.
                    for k in 2..clause.len() {
                        if lit_value(&self.assign, clause[k]) != Value::False {
                            clause.swap(1, k);
                            let new_watch = clause[1];
                            self.watches[new_watch.negated().index()].push(ci);
                            continue 'clauses;
                        }
                    }
                }
                // No replacement: unit or conflict on the other watch.
                let first = self.clauses[ci as usize][0];
                watchers[keep] = ci;
                keep += 1;
                match self.value_of(first) {
                    Value::Unassigned => self.enqueue(first, ci),
                    Value::False => {
                        conflict = Some(ci);
                        // Keep the remaining watchers registered untouched.
                        let tail = watchers.len();
                        watchers.copy_within(wi + 1..tail, keep);
                        keep += tail - (wi + 1);
                        break;
                    }
                    Value::True => unreachable!("satisfied clause handled above"),
                }
            }
            watchers.truncate(keep);
            debug_assert!(self.watches[lit.index()].is_empty() || conflict.is_none());
            let mut existing = std::mem::replace(&mut self.watches[lit.index()], watchers);
            self.watches[lit.index()].append(&mut existing);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: u32) {
        self.activity[var as usize] += self.act_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let current = self.trail_lim.len() as u32;
        let mut seen = vec![false; self.num_vars];
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 for the UIP
        let mut counter = 0usize;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let mut uip = Lit(0);
        loop {
            for k in 0..self.clauses[clause_idx as usize].len() {
                let lit = self.clauses[clause_idx as usize][k];
                let var = lit.var();
                if seen[var as usize] || self.level[var as usize] == 0 {
                    continue;
                }
                // Skip the UIP literal itself on reason clauses (it is the
                // implied literal, not an antecedent).
                if clause_idx != conflict && lit == uip {
                    continue;
                }
                seen[var as usize] = true;
                self.bump(var);
                if self.level[var as usize] == current {
                    counter += 1;
                } else {
                    learnt.push(lit);
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_pos -= 1;
                if seen[self.trail[trail_pos].var() as usize] {
                    break;
                }
            }
            uip = self.trail[trail_pos];
            seen[uip.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause_idx = self.reason[uip.var() as usize];
            debug_assert_ne!(clause_idx, u32::MAX, "non-UIP literal without a reason");
        }
        learnt[0] = uip.negated();
        // Backjump level: the highest level among the other literals.
        let mut back = 0u32;
        let mut swap_to = 1usize;
        for (i, &lit) in learnt.iter().enumerate().skip(1) {
            let lvl = self.level[lit.var() as usize];
            if lvl > back {
                back = lvl;
                swap_to = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, swap_to);
        }
        (learnt, back)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.trail_lim.len() as u32 > to_level {
            let mark = self.trail_lim.pop().unwrap_or(0);
            while self.trail.len() > mark {
                if let Some(lit) = self.trail.pop() {
                    self.assign[lit.var() as usize] = Value::Unassigned;
                    self.reason[lit.var() as usize] = u32::MAX;
                }
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
        self.prop_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<(f64, u32)> = None;
        for var in 0..self.num_vars as u32 {
            if self.assign[var as usize] == Value::Unassigned {
                let act = self.activity[var as usize];
                if best.is_none_or(|(b, _)| act > b) {
                    best = Some((act, var));
                }
            }
        }
        best.map(|(_, var)| if self.phase[var as usize] { Lit::pos(var) } else { Lit::neg(var) })
    }

    /// Runs the CDCL search to completion (or cancellation).
    pub fn solve(&mut self, cancel: Option<&CancelToken>) -> SolveResult {
        if self.unsat_on_load {
            return SolveResult::Unsat;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return SolveResult::Cancelled;
        }
        // Propagate the level-0 units accumulated by `add_clause`.
        if self.propagate().is_some() {
            return SolveResult::Unsat;
        }
        let mut restart_limit = 128u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.conflicts & CANCEL_MASK == 0
                    && cancel.is_some_and(CancelToken::is_cancelled)
                {
                    return SolveResult::Cancelled;
                }
                if self.trail_lim.is_empty() {
                    return SolveResult::Unsat;
                }
                let (learnt, back) = self.analyze(conflict);
                self.backtrack(back);
                self.act_inc *= 1.0 / 0.95;
                let assert_lit = learnt[0];
                if learnt.len() == 1 {
                    debug_assert!(self.trail_lim.is_empty());
                    if self.value_of(assert_lit) == Value::False {
                        return SolveResult::Unsat;
                    }
                    if self.value_of(assert_lit) == Value::Unassigned {
                        self.enqueue(assert_lit, u32::MAX);
                    }
                } else {
                    let idx = self.clauses.len() as u32;
                    self.watches[learnt[0].negated().index()].push(idx);
                    self.watches[learnt[1].negated().index()].push(idx);
                    self.clauses.push(learnt);
                    self.enqueue(assert_lit, idx);
                }
            } else {
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit += restart_limit / 2;
                    self.backtrack(0);
                    continue;
                }
                match self.decide() {
                    None => {
                        let model: Vec<bool> =
                            self.assign.iter().map(|&v| v == Value::True).collect();
                        return SolveResult::Sat(model);
                    }
                    Some(lit) => {
                        self.decisions += 1;
                        if self.decisions & CANCEL_MASK == 0
                            && cancel.is_some_and(CancelToken::is_cancelled)
                        {
                            return SolveResult::Cancelled;
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, u32::MAX);
                    }
                }
            }
        }
    }
}

/// At-most-one over `lits` via the sequential (ladder) encoding: `n − 1`
/// auxiliary commander variables and `~3n` binary clauses instead of the
/// quadratic pairwise encoding. Fresh variables are taken from `next_var`.
pub fn at_most_one(solver_clauses: &mut Vec<Vec<Lit>>, lits: &[Lit], next_var: &mut u32) {
    if lits.len() <= 1 {
        return;
    }
    if lits.len() <= 4 {
        for (i, &a) in lits.iter().enumerate() {
            for &b in &lits[i + 1..] {
                solver_clauses.push(vec![a.negated(), b.negated()]);
            }
        }
        return;
    }
    // s_i ("some literal among the first i+1 is true") chains forward.
    let mut prev: Option<Lit> = None;
    for (i, &lit) in lits.iter().enumerate() {
        if i + 1 == lits.len() {
            if let Some(s) = prev {
                solver_clauses.push(vec![s.negated(), lit.negated()]);
            }
            break;
        }
        let s = Lit::pos(*next_var);
        *next_var += 1;
        // lit -> s
        solver_clauses.push(vec![lit.negated(), s]);
        if let Some(p) = prev {
            // s_{i-1} -> s_i
            solver_clauses.push(vec![p.negated(), s]);
            // s_{i-1} -> ¬lit_i
            solver_clauses.push(vec![p.negated(), lit.negated()]);
        }
        prev = Some(s);
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    fn solve(num_vars: usize, clauses: &[&[Lit]]) -> SolveResult {
        let mut s = Solver::new(num_vars);
        for c in clauses {
            s.add_clause(c);
        }
        s.solve(None)
    }

    /// Truth-table reference: does any assignment satisfy all clauses?
    fn brute_force(num_vars: usize, clauses: &[Vec<Lit>]) -> Option<Vec<bool>> {
        assert!(num_vars <= 20);
        'outer: for bits in 0u32..(1 << num_vars) {
            let model: Vec<bool> = (0..num_vars).map(|v| bits >> v & 1 == 1).collect();
            for clause in clauses {
                if !clause.iter().any(|l| model[l.var() as usize] != l.is_neg()) {
                    continue 'outer;
                }
            }
            return Some(model);
        }
        None
    }

    #[test]
    fn empty_instance_is_sat() {
        assert!(matches!(solve(3, &[]), SolveResult::Sat(_)));
    }

    #[test]
    fn unit_contradiction_is_unsat() {
        let (a, na) = (Lit::pos(0), Lit::neg(0));
        assert_eq!(solve(1, &[&[a], &[na]]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // x_{p,h}: pigeon p in hole h. 3 pigeons, 2 holes.
        let x = |p: u32, h: u32| Lit::pos(p * 2 + h);
        let mut s = Solver::new(6);
        for p in 0..3 {
            s.add_clause(&[x(p, 0), x(p, 1)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in p1 + 1..3 {
                    s.add_clause(&[x(p1, h).negated(), x(p2, h).negated()]);
                }
            }
        }
        assert_eq!(s.solve(None), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(0), Lit::pos(2)],
            vec![Lit::neg(1), Lit::neg(2)],
            vec![Lit::pos(3), Lit::neg(2)],
        ];
        let mut s = Solver::new(4);
        for c in &clauses {
            s.add_clause(c);
        }
        let SolveResult::Sat(model) = s.solve(None) else {
            panic!("expected sat");
        };
        for clause in &clauses {
            assert!(clause.iter().any(|l| model[l.var() as usize] != l.is_neg()), "{clause:?}");
        }
    }

    #[test]
    fn cancelled_token_stops_the_search() {
        // A hard random-ish instance would be flaky; instead use an
        // already-expired deadline and verify the poll fires within the mask.
        let token = CancelToken::until(std::time::Instant::now());
        let x = |p: u32, h: u32| Lit::pos(p * 4 + h);
        let mut s = Solver::new(5 * 4);
        for p in 0..5 {
            s.add_clause(&[x(p, 0), x(p, 1), x(p, 2), x(p, 3)]);
        }
        for h in 0..4 {
            for p1 in 0..5 {
                for p2 in p1 + 1..5 {
                    s.add_clause(&[x(p1, h).negated(), x(p2, h).negated()]);
                }
            }
        }
        assert_eq!(s.solve(Some(&token)), SolveResult::Cancelled);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        // Deterministic xorshift instance generator: 200 instances over
        // ≤ 12 variables, cross-checked against the truth table.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let num_vars = 3 + (next() % 10) as usize;
            let num_clauses = 2 + (next() % 40) as usize;
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| {
                    let len = 1 + (next() % 3) as usize;
                    (0..len)
                        .map(|_| {
                            let var = (next() % num_vars as u64) as u32;
                            if next() % 2 == 0 {
                                Lit::pos(var)
                            } else {
                                Lit::neg(var)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut s = Solver::new(num_vars);
            for c in &clauses {
                s.add_clause(c);
            }
            let expect = brute_force(num_vars, &clauses);
            match (s.solve(None), expect) {
                (SolveResult::Sat(model), Some(_)) => {
                    for clause in &clauses {
                        assert!(
                            clause.iter().any(|l| model[l.var() as usize] != l.is_neg()),
                            "model violates {clause:?}"
                        );
                    }
                }
                (SolveResult::Unsat, None) => {}
                (got, expect) => {
                    panic!("solver {got:?} disagrees with brute force sat={}", expect.is_some())
                }
            }
        }
    }

    #[test]
    fn at_most_one_ladder_allows_one_and_rejects_two() {
        let lits: Vec<Lit> = (0..8).map(Lit::pos).collect();
        let mut next_var = 8u32;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        at_most_one(&mut clauses, &lits, &mut next_var);
        // Exactly-one is satisfiable for each choice…
        for chosen in 0..8u32 {
            let mut s = Solver::new(next_var as usize);
            for c in &clauses {
                s.add_clause(c);
            }
            for v in 0..8u32 {
                s.add_clause(&[if v == chosen { Lit::pos(v) } else { Lit::neg(v) }]);
            }
            assert!(matches!(s.solve(None), SolveResult::Sat(_)), "choice {chosen}");
        }
        // …while any pair is rejected.
        for a in 0..8u32 {
            for b in a + 1..8u32 {
                let mut s = Solver::new(next_var as usize);
                for c in &clauses {
                    s.add_clause(c);
                }
                s.add_clause(&[Lit::pos(a)]);
                s.add_clause(&[Lit::pos(b)]);
                assert_eq!(s.solve(None), SolveResult::Unsat, "pair {a},{b}");
            }
        }
    }
}
