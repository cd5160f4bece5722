//! Linear arithmetic by Fourier–Motzkin elimination with integer tightening.
//!
//! This is the `lia`-replacement: a refutation procedure for conjunctions of
//! linear constraints over ℤ (with tightening, so e.g. `0 < z ∧ z < 2` gives
//! `z = 1`) and ℚ (plain Fourier–Motzkin, which is complete for rationals).
//! Disequalities are handled by bounded case splitting.

use crate::evar::VarCtx;
use crate::normalize::{normalize, LinComb};
use crate::pure::PureProp;
use crate::qp::Rat;
use crate::term::Term;

/// A constraint `lc ≤ 0` (or `lc < 0` when `strict`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The linear combination `lc` constrained to be ≥ 0 (or > 0).
    pub lc: LinComb,
    /// Whether the constraint is strict (`> 0` instead of `≥ 0`).
    pub strict: bool,
}

/// Upper bound on constraints produced during elimination; beyond this the
/// procedure gives up (answers "not refuted") rather than blowing up.
const MAX_CONSTRAINTS: usize = 4096;

/// Upper bound on disequality case splits (2^n branches).
const MAX_NE_SPLITS: usize = 6;

/// Result of the refutation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinResult {
    /// The constraint set is unsatisfiable.
    Unsat,
    /// Satisfiable, or the procedure gave up.
    Unknown,
}

/// The linear solver state: a set of constraints to be refuted.
///
/// The fact-level state (`constraints`, `diseqs`, `trivially_false`) is
/// push-only between [`Linear::mark`] points, so rollback is a pair of
/// truncations plus a flag restore — O(changes).
#[derive(Debug, Clone, Default)]
pub struct Linear {
    constraints: Vec<Constraint>,
    diseqs: Vec<LinComb>, // lc ≠ 0
    trivially_false: bool,
}

/// A point in a [`Linear`]'s history; see [`Linear::mark`].
#[derive(Debug, Clone)]
pub struct LinearMark {
    constraints: usize,
    diseqs: usize,
    trivially_false: bool,
}

impl Linear {
    #[must_use]
    /// An empty linear-arithmetic state.
    pub fn new() -> Linear {
        Linear::default()
    }

    /// Captures the current state for a later [`Linear::rollback`].
    #[must_use]
    pub fn mark(&self) -> LinearMark {
        LinearMark {
            constraints: self.constraints.len(),
            diseqs: self.diseqs.len(),
            trivially_false: self.trivially_false,
        }
    }

    /// Restores the state captured by `mark`. Returns the number of undo
    /// operations performed (for telemetry).
    pub fn rollback(&mut self, mark: &LinearMark) -> u64 {
        let undone = (self.constraints.len().saturating_sub(mark.constraints)
            + self.diseqs.len().saturating_sub(mark.diseqs)) as u64;
        self.constraints.truncate(mark.constraints);
        self.diseqs.truncate(mark.diseqs);
        self.trivially_false = mark.trivially_false;
        undone
    }

    /// Adds a numeric literal fact. Non-numeric or unsupported facts are
    /// ignored (which is sound for refutation).
    pub fn add_fact(&mut self, ctx: &VarCtx, p: &PureProp) {
        match p {
            PureProp::Le(a, b) => self.add_le(ctx, a, b, false),
            PureProp::Lt(a, b) => self.add_le(ctx, a, b, true),
            PureProp::Eq(a, b) => {
                self.add_le(ctx, a, b, false);
                self.add_le(ctx, b, a, false);
            }
            PureProp::Ne(a, b) => {
                let lc = normalize(ctx, a).minus(&normalize(ctx, b));
                if lc.is_constant() {
                    if lc.constant.is_zero() {
                        self.trivially_false = true;
                    }
                } else {
                    self.diseqs.push(lc);
                }
            }
            PureProp::False => self.trivially_false = true,
            _ => {}
        }
    }

    fn add_le(&mut self, ctx: &VarCtx, a: &Term, b: &Term, strict: bool) {
        // a ≤ b  ⇝  a - b ≤ 0.
        let lc = normalize(ctx, a).minus(&normalize(ctx, b));
        self.push(ctx, Constraint { lc, strict });
    }

    fn push(&mut self, ctx: &VarCtx, c: Constraint) {
        let c = tighten(ctx, c);
        if c.lc.is_constant() {
            let holds = if c.strict {
                c.lc.constant.is_negative()
            } else {
                !c.lc.constant.is_positive()
            };
            if !holds {
                self.trivially_false = true;
            }
            return;
        }
        self.constraints.push(c);
    }

    /// Attempts to refute the accumulated constraints.
    ///
    /// Elimination runs on a rank-indexed copy of the state (see
    /// [`Ranked`]): atoms are ranked by their `Term` order once per call,
    /// so every round of Fourier–Motzkin works on dense
    /// `Vec<(rank, coeff)>` rows instead of re-comparing structural
    /// `Term` keys in `BTreeMap`s. The enumeration order this induces is
    /// exactly the `BTreeMap` order the direct formulation would use, so
    /// pivot tie-breaking, the constraint budget, and integer tightening
    /// all behave identically — the verdict is the same, only cheaper.
    #[must_use]
    pub fn refute(&self, ctx: &VarCtx) -> LinResult {
        if self.trivially_false {
            return LinResult::Unsat;
        }
        let ranked = Ranked::new(ctx, &self.constraints, &self.diseqs);
        let constraints: Vec<Row> = self.constraints.iter().map(|c| ranked.row(c)).collect();
        let diseqs: Vec<(Vec<(u32, Rat)>, Rat)> = self
            .diseqs
            .iter()
            .map(|lc| (ranked.coeffs(lc), lc.constant))
            .collect();
        ranked.refute_with_splits(constraints, &diseqs)
    }
}

/// A constraint in rank-indexed form: `constant + Σ coeffs ≤ 0` (or `< 0`
/// when `strict`), with coefficient rows sorted by atom rank.
#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<(u32, Rat)>,
    constant: Rat,
    strict: bool,
}

impl Row {
    fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Whether a constant constraint holds (`constant ≤ 0`, strictly if
    /// `strict`). Mirrors the checks in [`Linear::push`] and
    /// [`Ranked::fourier_motzkin`]'s constant filter.
    fn constant_holds(&self) -> bool {
        if self.strict {
            self.constant.is_negative()
        } else {
            !self.constant.is_positive()
        }
    }

    fn coeff(&self, rank: u32) -> Option<Rat> {
        self.coeffs
            .binary_search_by_key(&rank, |&(r, _)| r)
            .ok()
            .map(|i| self.coeffs[i].1)
    }
}

/// The per-`refute` elimination context: every atom appearing in the
/// constraints or disequalities, ranked by `Term` order, plus each atom's
/// precomputed integral-sortedness (tightening queries it per round; the
/// answer cannot change within one call).
struct Ranked {
    atoms: Vec<Term>,
    integral: Vec<bool>,
}

impl Ranked {
    fn new(ctx: &VarCtx, constraints: &[Constraint], diseqs: &[LinComb]) -> Ranked {
        let mut atoms: Vec<Term> = Vec::new();
        for c in constraints {
            atoms.extend(c.lc.coeffs.keys().cloned());
        }
        for lc in diseqs {
            atoms.extend(lc.coeffs.keys().cloned());
        }
        atoms.sort_unstable();
        atoms.dedup();
        let integral = atoms.iter().map(|t| t.sort(ctx).is_integral()).collect();
        Ranked { atoms, integral }
    }

    /// Indexes a `LinComb`'s coefficients by atom rank. `BTreeMap`
    /// iteration is `Term`-ordered and ranks are assigned in `Term`
    /// order, so the row comes out rank-sorted.
    fn coeffs(&self, lc: &LinComb) -> Vec<(u32, Rat)> {
        lc.coeffs
            .iter()
            .map(|(t, q)| {
                let rank = self
                    .atoms
                    .binary_search(t)
                    .expect("refute atom table covers all constraint atoms");
                (rank as u32, *q)
            })
            .collect()
    }

    fn row(&self, c: &Constraint) -> Row {
        Row {
            coeffs: self.coeffs(&c.lc),
            constant: c.lc.constant,
            strict: c.strict,
        }
    }

    fn refute_with_splits(
        &self,
        constraints: Vec<Row>,
        diseqs: &[(Vec<(u32, Rat)>, Rat)],
    ) -> LinResult {
        match diseqs.split_first() {
            None => self.fourier_motzkin(constraints),
            Some((first, rest)) => {
                if diseqs.len() > MAX_NE_SPLITS {
                    // Too many splits: drop the extras (sound: fewer facts).
                    return self.refute_with_splits(constraints, &diseqs[..MAX_NE_SPLITS]);
                }
                // lc ≠ 0  ⇝  lc < 0 ∨ lc > 0; both branches must be UNSAT.
                for sign in [Rat::ONE, -Rat::ONE] {
                    let mut branch = constraints.clone();
                    let split = self.tighten(Row {
                        coeffs: scale_row(&first.0, sign),
                        constant: first.1 * sign,
                        strict: true,
                    });
                    if split.is_constant() {
                        if !split.constant_holds() {
                            // Branch is trivially false: counts as refuted.
                            continue;
                        }
                        // A trivially-true split adds nothing.
                    } else {
                        branch.push(split);
                    }
                    if self.refute_with_splits(branch, rest) == LinResult::Unknown {
                        return LinResult::Unknown;
                    }
                }
                LinResult::Unsat
            }
        }
    }

    /// Integer tightening on a rank-indexed row; the exact analogue of
    /// [`tighten`] (same scaling, same fold order over the rank-sorted
    /// coefficients).
    fn tighten(&self, c: Row) -> Row {
        let all_int = c.coeffs.iter().all(|&(r, _)| self.integral[r as usize]);
        if !all_int || c.coeffs.is_empty() {
            return c;
        }
        // Scale to integer coefficients.
        let mut lcm: i128 = c.constant.denominator();
        for (_, q) in &c.coeffs {
            let d = q.denominator();
            lcm = lcm / gcd_i(lcm, d) * d;
        }
        let scale = Rat::from_int(lcm);
        let coeffs: Vec<(u32, Rat)> = c.coeffs.iter().map(|&(r, q)| (r, q * scale)).collect();
        let mut constant = c.constant * scale;
        let mut strict = c.strict;
        if strict {
            // lc < 0 over ℤ  ⟺  lc + 1 ≤ 0.
            constant = constant + Rat::ONE;
            strict = false;
        }
        // gcd tightening of the constant term.
        let g = coeffs
            .iter()
            .fold(0i128, |acc, (_, q)| gcd_i(acc, q.numerator()));
        if g > 1 {
            let gq = Rat::from_int(g);
            let tightened = Rat::from_int((constant / gq).ceil());
            let recip = gq.recip();
            return Row {
                coeffs: coeffs.iter().map(|&(r, q)| (r, q * recip)).collect(),
                constant: tightened,
                strict,
            };
        }
        Row {
            coeffs,
            constant,
            strict,
        }
    }

    fn fourier_motzkin(&self, mut cs: Vec<Row>) -> LinResult {
        loop {
            // Constant constraints are either trivially violated (UNSAT)
            // or dropped.
            let mut next = Vec::new();
            for c in cs {
                if c.is_constant() {
                    if !c.constant_holds() {
                        return LinResult::Unsat;
                    }
                } else {
                    next.push(c);
                }
            }
            cs = next;
            if cs.is_empty() {
                return LinResult::Unknown;
            }
            // Pick the atom with the fewest upper×lower combinations.
            // First occurrence wins ties, scanning constraints in order
            // and each row's atoms in rank (= `Term`) order — the same
            // enumeration the `BTreeMap` formulation produces.
            let mut seen = vec![false; self.atoms.len()];
            let mut order: Vec<u32> = Vec::new();
            let mut upper = vec![0usize; self.atoms.len()];
            let mut lower = vec![0usize; self.atoms.len()];
            for c in &cs {
                for &(r, q) in &c.coeffs {
                    if !seen[r as usize] {
                        seen[r as usize] = true;
                        order.push(r);
                    }
                    if q.is_positive() {
                        upper[r as usize] += 1;
                    } else {
                        lower[r as usize] += 1;
                    }
                }
            }
            let atom = *order
                .iter()
                .min_by_key(|&&r| upper[r as usize] * lower[r as usize])
                .expect("non-empty constraint set has atoms");
            let (mut uppers, mut lowers, mut rest) = (Vec::new(), Vec::new(), Vec::new());
            for c in cs {
                match c.coeff(atom) {
                    Some(q) if q.is_positive() => uppers.push(c),
                    Some(_) => lowers.push(c),
                    None => rest.push(c),
                }
            }
            // Combine: from  a·x + r ≤ 0 (a>0)  and  -b·x + s ≤ 0 (b>0),
            // eliminate x:  b·r + a·s ≤ 0.
            for u in &uppers {
                let a = u.coeff(atom).expect("upper has atom");
                for l in &lowers {
                    let b = -l.coeff(atom).expect("lower has atom");
                    let combined = merge_scaled(&u.coeffs, b, &l.coeffs, a);
                    debug_assert!(combined.iter().all(|&(r, _)| r != atom));
                    let c = self.tighten(Row {
                        coeffs: combined,
                        constant: u.constant * b + l.constant * a,
                        strict: u.strict || l.strict,
                    });
                    rest.push(c);
                    if rest.len() > MAX_CONSTRAINTS {
                        return LinResult::Unknown;
                    }
                }
            }
            cs = rest;
        }
    }
}

fn scale_row(row: &[(u32, Rat)], q: Rat) -> Vec<(u32, Rat)> {
    row.iter().map(|&(r, c)| (r, c * q)).collect()
}

/// `a·qa + b·qb` over rank-sorted rows, dropping cancelled entries — the
/// indexed analogue of `a.scale(qa).plus(&b.scale(qb))`.
fn merge_scaled(a: &[(u32, Rat)], qa: Rat, b: &[(u32, Rat)], qb: Rat) -> Vec<(u32, Rat)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ra, ca) = a[i];
        let (rb, cb) = b[j];
        match ra.cmp(&rb) {
            std::cmp::Ordering::Less => {
                out.push((ra, ca * qa));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((rb, cb * qb));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let sum = ca * qa + cb * qb;
                if !sum.is_zero() {
                    out.push((ra, sum));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().map(|&(r, c)| (r, c * qa)));
    out.extend(b[j..].iter().map(|&(r, c)| (r, c * qb)));
    out
}

/// Integer tightening: when every atom of the constraint is integer-sorted
/// and the coefficients can be scaled to integers, `lc < 0` becomes
/// `lc + 1 ≤ 0`, and the constant is tightened by the gcd of the variable
/// coefficients.
fn tighten(ctx: &VarCtx, c: Constraint) -> Constraint {
    let all_int = c.lc.coeffs.keys().all(|t| t.sort(ctx).is_integral());
    if !all_int || c.lc.coeffs.is_empty() {
        return c;
    }
    // Scale to integer coefficients.
    let mut lcm: i128 = c.lc.constant.denominator();
    for q in c.lc.coeffs.values() {
        let d = q.denominator();
        lcm = lcm / gcd_i(lcm, d) * d;
    }
    let scaled = c.lc.scale(Rat::from_int(lcm));
    let mut constant = scaled.constant;
    let mut strict = c.strict;
    if strict {
        // lc < 0 over ℤ  ⟺  lc + 1 ≤ 0.
        constant = constant + Rat::ONE;
        strict = false;
    }
    // gcd tightening of the constant term.
    let g = scaled
        .coeffs
        .values()
        .fold(0i128, |acc, q| gcd_i(acc, q.numerator()));
    if g > 1 {
        let gq = Rat::from_int(g);
        let tightened = Rat::from_int((constant / gq).ceil());
        let mut lc = scaled.scale(gq.recip());
        lc.constant = tightened;
        return Constraint { lc, strict };
    }
    let mut lc = scaled;
    lc.constant = constant;
    Constraint { lc, strict }
}

fn gcd_i(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::Qp;
    use crate::sort::Sort;

    fn int_var(ctx: &mut VarCtx, n: &str) -> Term {
        Term::var(ctx.fresh_var(Sort::Int, n))
    }

    fn refutes(ctx: &VarCtx, facts: &[PureProp]) -> bool {
        let mut lin = Linear::new();
        for f in facts {
            lin.add_fact(ctx, f);
        }
        lin.refute(ctx) == LinResult::Unsat
    }

    #[test]
    fn simple_bounds() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        assert!(refutes(
            &ctx,
            &[
                PureProp::lt(Term::int(0), z.clone()),
                PureProp::le(z.clone(), Term::int(0)),
            ]
        ));
        assert!(!refutes(&ctx, &[PureProp::lt(Term::int(0), z)]));
    }

    #[test]
    fn integer_tightening() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        // 0 < z ∧ z < 2 ∧ z ≠ 1 is UNSAT over ℤ (but not over ℚ).
        assert!(refutes(
            &ctx,
            &[
                PureProp::lt(Term::int(0), z.clone()),
                PureProp::lt(z.clone(), Term::int(2)),
                PureProp::ne(z, Term::int(1)),
            ]
        ));
    }

    #[test]
    fn gcd_tightening() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        // 2z ≤ 3 ∧ 2 ≤ 2z  ⇒ z = 1; conflicts with z ≠ 1.
        assert!(refutes(
            &ctx,
            &[
                PureProp::le(Term::mul(Term::int(2), z.clone()), Term::int(3)),
                PureProp::le(Term::int(2), Term::mul(Term::int(2), z.clone())),
                PureProp::ne(z, Term::int(1)),
            ]
        ));
    }

    #[test]
    fn elimination_chains() {
        let mut ctx = VarCtx::new();
        let x = int_var(&mut ctx, "x");
        let y = int_var(&mut ctx, "y");
        let z = int_var(&mut ctx, "z");
        // x ≤ y ∧ y ≤ z ∧ z < x is UNSAT.
        assert!(refutes(
            &ctx,
            &[
                PureProp::le(x.clone(), y.clone()),
                PureProp::le(y, z.clone()),
                PureProp::lt(z, x),
            ]
        ));
    }

    #[test]
    fn rational_constraints() {
        let mut ctx = VarCtx::new();
        let q = Term::var(ctx.fresh_var(Sort::Qp, "q"));
        // q ≤ 1/2 ∧ 1 ≤ q is UNSAT over ℚ.
        assert!(refutes(
            &ctx,
            &[
                PureProp::le(q.clone(), Term::qp(Qp::half())),
                PureProp::le(Term::qp_one(), q),
            ]
        ));
        // Over ℚ, 0 < q ∧ q < 1 is satisfiable (no tightening).
        let r = Term::var(ctx.fresh_var(Sort::Qp, "r"));
        assert!(!refutes(
            &ctx,
            &[
                PureProp::lt(Term::qp(Qp::new(1, 1000).unwrap()), r.clone()),
                PureProp::lt(r, Term::qp_one()),
            ]
        ));
    }

    #[test]
    fn equalities() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        assert!(refutes(
            &ctx,
            &[
                PureProp::eq(z.clone(), Term::int(5)),
                PureProp::lt(z, Term::int(5)),
            ]
        ));
    }

    #[test]
    fn constant_diseq() {
        let ctx = VarCtx::new();
        assert!(refutes(&ctx, &[PureProp::ne(Term::int(3), Term::int(3))]));
        assert!(!refutes(&ctx, &[PureProp::ne(Term::int(3), Term::int(4))]));
    }

    #[test]
    fn arc_drop_case_split() {
        // The two branches of the ARC drop proof (§2.2):
        // with 0 < z and z = 1:  ¬(0 < z - 1) holds.
        // with 0 < z and z > 1:  0 < z - 1 holds, i.e. ¬ is refuted.
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let zm1 = Term::sub(z.clone(), Term::int(1));
        assert!(refutes(
            &ctx,
            &[
                PureProp::lt(Term::int(0), z.clone()),
                PureProp::eq(z.clone(), Term::int(1)),
                PureProp::lt(Term::int(0), zm1.clone()),
            ]
        ));
        assert!(refutes(
            &ctx,
            &[
                PureProp::lt(Term::int(1), z),
                PureProp::le(zm1, Term::int(0)),
            ]
        ));
    }
}
