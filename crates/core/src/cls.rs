//! Commutativity-aware Logical Scheduling (CLS) — Algorithm 1 of the paper.
//!
//! Each qubit carries an ordered list of *commutation groups*: maximal runs of
//! consecutive instructions (in program order restricted to that qubit) that
//! pairwise commute. Two instructions may be reordered exactly when they sit in
//! the same commutation group on every qubit they share. The scheduler walks
//! the groups front to back; at every round it gathers the instructions whose
//! groups are currently "open" on all of their qubits, resolves qubit conflicts
//! with a maximal matching of the candidate computational graph (Fig. 7), and
//! emits the selected instructions. The output is a new instruction order that
//! maximizes parallelism without changing circuit semantics.
//!
//! # The ready set
//!
//! A round costs about as much as the instructions it can schedule, not the
//! whole stream. The groups are stored flat, with one index from every
//! (instruction, qubit) pair to its group and a count of unscheduled members
//! per group. A qubit's cursor can only move when one of its instructions was
//! scheduled, so each round advances the cursors of the qubits the previous
//! round touched, past groups whose count reached zero. When a cursor opens a
//! group, each unscheduled member counts one more open qubit, and a member
//! whose qubits are all open joins the *ready set*. Ready members stay ready
//! until scheduled, because a cursor never passes a group with an
//! unscheduled member. The ready set is kept sorted, so each round sees
//! exactly the candidates, in the same ascending order, that a scan of every
//! instruction would find; the matching, which depends on edge order, is
//! unchanged.
//!
//! Building the groups asks whether each instruction commutes with every
//! member of its qubit's open group. Circuits repeat a few gate patterns many
//! times, so the answers are kept in a table keyed by instruction shape (see
//! `CommutationMemo`) and each distinct question is computed once. The table
//! also keeps each shape's local unitary and diagonal flag, built at most
//! once per build, so a question that needs the dense check embeds two
//! cached unitaries instead of multiplying out both instructions.

use crate::instr::{self, AggregateInstruction, LocalUnitary};
use qcc_graph::{matching, Graph};
use std::collections::BTreeMap;

/// Per-qubit commutation groups, stored flat: the groups of qubit 0 first,
/// then those of qubit 1, and so on, each an ordered list of the indices of
/// instructions acting on that qubit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommutationGroups {
    /// Member instruction indices, group after group.
    members: Vec<usize>,
    /// Group `g` is `members[group_start[g]..group_start[g + 1]]`.
    group_start: Vec<usize>,
    /// The groups of qubit `q` are `qubit_start[q]..qubit_start[q + 1]`.
    qubit_start: Vec<usize>,
}

impl CommutationGroups {
    /// Builds the commutation groups for an instruction sequence.
    pub fn build(instrs: &[AggregateInstruction]) -> Self {
        let n_qubits = instrs
            .iter()
            .flat_map(|i| i.qubits.iter().copied())
            .max()
            .map_or(0, |m| m + 1);
        // Each qubit's instructions in program order, qubit after qubit.
        let mut order_start = vec![0usize; n_qubits + 1];
        for inst in instrs {
            for &q in &inst.qubits {
                order_start[q + 1] += 1;
            }
        }
        for q in 0..n_qubits {
            order_start[q + 1] += order_start[q];
        }
        let mut fill = order_start.clone();
        let mut by_qubit = vec![0usize; order_start[n_qubits]];
        for (idx, inst) in instrs.iter().enumerate() {
            for &q in &inst.qubits {
                by_qubit[fill[q]] = idx;
                fill[q] += 1;
            }
        }

        let mut memo = CommutationMemo::new(instrs);
        let mut members = Vec::with_capacity(by_qubit.len());
        let mut group_start = Vec::new();
        let mut qubit_start = Vec::with_capacity(n_qubits + 1);
        for q in 0..n_qubits {
            qubit_start.push(group_start.len());
            for &idx in &by_qubit[order_start[q]..order_start[q + 1]] {
                let open = *group_start.last().unwrap_or(&0);
                let fits_last = group_start.len() > qubit_start[q]
                    && members[open..]
                        .iter()
                        .all(|&other| memo.commutes(idx, other));
                if !fits_last {
                    group_start.push(members.len());
                }
                members.push(idx);
            }
        }
        qubit_start.push(group_start.len());
        group_start.push(members.len());
        Self {
            members,
            group_start,
            qubit_start,
        }
    }

    /// Number of qubits the groups cover (one past the highest used index).
    fn qubit_count(&self) -> usize {
        self.qubit_start.len() - 1
    }

    /// The members of group `g`, in program order.
    fn members(&self, g: usize) -> &[usize] {
        &self.members[self.group_start[g]..self.group_start[g + 1]]
    }

    /// The group ids of qubit `q` (empty when the qubit is idle).
    fn group_ids(&self, q: usize) -> std::ops::Range<usize> {
        match (self.qubit_start.get(q), self.qubit_start.get(q + 1)) {
            (Some(&first), Some(&end)) => first..end,
            _ => 0..0,
        }
    }

    /// The groups of qubit `q` in order, each as its members in program
    /// order (none when the qubit is idle).
    pub fn groups_on(&self, q: usize) -> impl Iterator<Item = &[usize]> + '_ {
        self.group_ids(q).map(|g| self.members(g))
    }

    /// Number of groups on qubit `q` (0 when the qubit is idle).
    pub fn group_count(&self, q: usize) -> usize {
        self.group_ids(q).len()
    }

    /// Whether two instructions can be reordered: they are in the same group on
    /// every shared qubit.
    pub fn can_reorder(&self, instrs: &[AggregateInstruction], a: usize, b: usize) -> bool {
        let shared = instrs[a].shared_qubits(&instrs[b]);
        shared
            .iter()
            .all(|&q| self.groups_on(q).any(|g| g.contains(&a) && g.contains(&b)))
    }
}

/// [`AggregateInstruction::commutes_with`], asked once per distinct question.
///
/// The answer depends only on the two instructions' gates with their qubits
/// relabelled by rank in the joint support (every test it makes — structural,
/// diagonal, dense — is invariant under an order-preserving relabel). That is
/// fixed by each instruction's *shape* (its gates on its own sorted support)
/// and by how the two supports interleave, so answers are kept per
/// `(shape, shape, interleaving)`. Circuits repeat a few gate patterns many
/// times, so most questions are answered from the table.
///
/// The questions that do reach the decision share one [`LocalUnitary`] per
/// shape: each shape's local unitary and diagonal flag are built at most
/// once, and a dense check only embeds the two cached unitaries. The memo
/// lives for one [`CommutationGroups::build`].
struct CommutationMemo<'a> {
    instrs: &'a [AggregateInstruction],
    /// Shape id of every instruction.
    shape: Vec<u32>,
    /// Local unitary and diagonal flag of every shape.
    unitaries: Vec<LocalUnitary>,
    known: BTreeMap<(u32, u32, u64), bool>,
}

impl<'a> CommutationMemo<'a> {
    fn new(instrs: &'a [AggregateInstruction]) -> Self {
        let mut ids: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        let mut key = Vec::new();
        let shape = instrs
            .iter()
            .map(|inst| {
                key.clear();
                for gate in &inst.constituents {
                    gate.gate.encode_into(&mut key);
                    key.extend_from_slice(&(gate.qubits.len() as u32).to_le_bytes());
                    for q in &gate.qubits {
                        let rank = inst.qubits.partition_point(|s| s < q) as u32;
                        key.extend_from_slice(&rank.to_le_bytes());
                    }
                }
                if let Some(&id) = ids.get(&key) {
                    return id;
                }
                let id = ids.len() as u32;
                ids.insert(key.clone(), id);
                id
            })
            .collect();
        Self {
            instrs,
            shape,
            unitaries: (0..ids.len()).map(|_| LocalUnitary::default()).collect(),
            known: BTreeMap::new(),
        }
    }

    /// How the sorted supports of `a` and `b` interleave: two bits per joint
    /// qubit (in `a` only, in `b` only, in both); `None` past 32 qubits.
    fn interleaving(a: &[usize], b: &[usize]) -> Option<u64> {
        let (mut x, mut y, mut bits) = (0, 0, 0u64);
        for _ in 0..32 {
            let code = match (a.get(x), b.get(y)) {
                (None, None) => return Some(bits),
                (Some(p), Some(q)) if p == q => {
                    x += 1;
                    y += 1;
                    3
                }
                (Some(p), Some(q)) if p > q => {
                    y += 1;
                    2
                }
                (Some(_), _) => {
                    x += 1;
                    1
                }
                (None, Some(_)) => {
                    y += 1;
                    2
                }
            };
            bits = bits << 2 | code;
        }
        (x == a.len() && y == b.len()).then_some(bits)
    }

    fn commutes(&mut self, a: usize, b: usize) -> bool {
        let (sa, sb) = (self.shape[a], self.shape[b]);
        let decide = || {
            instr::commutes(
                &self.instrs[a],
                &self.unitaries[sa as usize],
                &self.instrs[b],
                &self.unitaries[sb as usize],
            )
        };
        match Self::interleaving(&self.instrs[a].qubits, &self.instrs[b].qubits) {
            Some(layout) => *self.known.entry((sa, sb, layout)).or_insert_with(decide),
            None => decide(),
        }
    }
}

/// Result of the CLS pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ClsResult {
    /// New instruction order (indices into the input slice).
    pub order: Vec<usize>,
    /// Number of scheduling rounds used (a proxy for logical depth).
    pub rounds: usize,
}

/// Runs CLS and returns the new instruction order.
///
/// The `latencies` are used to prioritize longer instructions inside a round
/// (they are matched first), mirroring the greedy choice of Algorithm 1.
pub fn schedule(instrs: &[AggregateInstruction], latencies: &[f64]) -> ClsResult {
    assert_eq!(instrs.len(), latencies.len(), "latency count mismatch");
    let n = instrs.len();
    if n == 0 {
        return ClsResult {
            order: Vec::new(),
            rounds: 0,
        };
    }
    let groups = CommutationGroups::build(instrs);
    let n_qubits = groups.qubit_count();
    let max_qubit = n_qubits.saturating_sub(1);

    // The group of every (instruction, qubit) pair: slot `slot_start[i] + s`
    // belongs to the s-th qubit of instruction i.
    let mut slot_start = Vec::with_capacity(n + 1);
    slot_start.push(0usize);
    for inst in instrs {
        slot_start.push(slot_start[slot_start.len() - 1] + inst.qubits.len());
    }
    let mut slot_group = vec![0usize; slot_start[n]];
    for q in 0..n_qubits {
        for g in groups.group_ids(q) {
            for &i in groups.members(g) {
                let s = instrs[i]
                    .qubits
                    .iter()
                    .position(|&x| x == q)
                    .expect("a group member acts on its qubit");
                slot_group[slot_start[i] + s] = g;
            }
        }
    }
    let mut unscheduled: Vec<usize> = groups.group_start.windows(2).map(|w| w[1] - w[0]).collect();
    // Per qubit: the open group (its end when the qubit is done).
    let mut cursor: Vec<usize> = groups.qubit_start[..n_qubits].to_vec();
    // Per instruction: how many of its qubits have its group open.
    let mut open = vec![0usize; n];
    for q in 0..n_qubits {
        if let Some(g) = groups.group_ids(q).next() {
            for &i in groups.members(g) {
                open[i] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n)
        .filter(|&i| open[i] == instrs[i].qubits.len())
        .collect();
    let mut scheduled = vec![false; n];
    let mut first_unscheduled = 0usize;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut rounds = 0usize;
    let mut touched: Vec<usize> = Vec::new();
    let mut used_qubits: Vec<bool> = vec![false; max_qubit + 1];

    // Marks `i` scheduled, releases its group slots, and notes its qubits.
    let emit =
        |i: usize, scheduled: &mut [bool], unscheduled: &mut [usize], touched: &mut Vec<usize>| {
            scheduled[i] = true;
            for &g in &slot_group[slot_start[i]..slot_start[i + 1]] {
                unscheduled[g] -= 1;
            }
            touched.extend_from_slice(&instrs[i].qubits);
        };

    while order.len() < n {
        rounds += 1;
        // Advance the cursors the last round can have moved past
        // fully-scheduled groups, opening the group each one lands on.
        let ready_before = ready.len();
        for &q in &touched {
            let end = groups.qubit_start[q + 1];
            let mut c = cursor[q];
            if c == end || unscheduled[c] > 0 {
                continue;
            }
            while c < end && unscheduled[c] == 0 {
                c += 1;
            }
            cursor[q] = c;
            if c < end {
                for &i in groups.members(c) {
                    if !scheduled[i] {
                        open[i] += 1;
                        if open[i] == instrs[i].qubits.len() {
                            ready.push(i);
                        }
                    }
                }
            }
        }
        touched.clear();
        if ready.len() > ready_before {
            ready.sort_unstable();
        }

        // Candidate instructions: the ready set, in ascending order.
        if ready.is_empty() {
            // Should not happen for well-formed inputs, but guarantee progress
            // by force-scheduling the earliest unscheduled instruction.
            while scheduled[first_unscheduled] {
                first_unscheduled += 1;
            }
            let fallback = first_unscheduled;
            emit(fallback, &mut scheduled, &mut unscheduled, &mut touched);
            order.push(fallback);
            continue;
        }

        // Build the computational graph: qubits are vertices, 2-qubit candidate
        // instructions are edges (weighted by latency so long instructions are
        // matched first); single-qubit candidates never conflict.
        let mut conflict = Graph::new(max_qubit + 1);
        let mut edge_owner: Vec<((usize, usize), usize)> = Vec::new();
        let mut selected: Vec<usize> = Vec::new();
        for &i in &ready {
            match instrs[i].qubits.len() {
                1 => selected.push(i),
                2 => {
                    let a = instrs[i].qubits[0].min(instrs[i].qubits[1]);
                    let b = instrs[i].qubits[0].max(instrs[i].qubits[1]);
                    // Keep only the first candidate per edge this round; the
                    // rest will be picked up in later rounds.
                    if !conflict.has_edge(a, b) {
                        edge_owner.push(((a, b), i));
                        conflict.add_edge(a, b, latencies[i].max(1e-9));
                    }
                }
                _ => {
                    // Wider instructions (rare before aggregation) are
                    // scheduled greedily if none of their qubits is used by an
                    // already-selected instruction this round.
                    selected.push(i);
                }
            }
        }
        if !edge_owner.is_empty() {
            for (a, b) in matching::improved_matching(&conflict) {
                let key = (a.min(b), a.max(b));
                if let Some(&(_, i)) = edge_owner.iter().find(|(edge, _)| *edge == key) {
                    selected.push(i);
                }
            }
        }
        // Resolve residual conflicts among the selected set (wide instructions
        // or a 1-qubit gate whose qubit also appears in a matched edge): keep
        // the earliest conflict-free subset in candidate order.
        used_qubits.fill(false);
        selected.sort_unstable();
        let mut emitted_this_round = Vec::new();
        for i in selected {
            if instrs[i].qubits.iter().any(|&q| used_qubits[q]) {
                continue;
            }
            for &q in &instrs[i].qubits {
                used_qubits[q] = true;
            }
            emitted_this_round.push(i);
        }
        if emitted_this_round.is_empty() {
            emitted_this_round.push(ready[0]);
        }
        // Emit in original-index order for determinism.
        emitted_this_round.sort_unstable();
        for &i in &emitted_this_round {
            emit(i, &mut scheduled, &mut unscheduled, &mut touched);
        }
        order.extend(emitted_this_round);
        ready.retain(|&i| !scheduled[i]);
    }

    ClsResult { order, rounds }
}

/// Applies an order to an instruction list.
pub fn apply_order(instrs: &[AggregateInstruction], order: &[usize]) -> Vec<AggregateInstruction> {
    order.iter().map(|&i| instrs[i].clone()).collect()
}

/// CLS as it was before the ready set, kept as the reference the ready-set
/// scheduler is tested against: per-qubit groups as nested lists, and every
/// round rescans all instructions with `Vec::contains` group tests. Its
/// commutation test is the uncached one the memo is tested against.
#[cfg(test)]
mod reference {
    use super::ClsResult;
    use crate::instr::AggregateInstruction;
    use qcc_graph::{matching, Graph};
    use qcc_ir::{commute, Instruction};
    use qcc_math::CMatrix;
    use std::collections::BTreeMap;

    /// The product of `gates` on `support`, one embedded gate matrix at a
    /// time.
    fn product(gates: &[Instruction], support: &[usize]) -> CMatrix {
        let n = support.len();
        let mut u = CMatrix::identity(1 << n);
        for inst in gates {
            let local: Vec<usize> = inst
                .qubits
                .iter()
                .map(|q| support.iter().position(|s| s == q).expect("in support"))
                .collect();
            u = inst.gate.matrix().embed(n, &local).matmul(&u);
        }
        u
    }

    fn is_diagonal(inst: &AggregateInstruction) -> bool {
        inst.constituents.iter().all(|i| i.gate.is_diagonal())
            || (inst.width() <= 4 && product(&inst.constituents, &inst.qubits).is_diagonal(1e-9))
    }

    /// `AggregateInstruction::commutes_with` without a unitary cache: the
    /// dense check multiplies every constituent of both instructions on the
    /// joint support.
    pub(super) fn commutes(a: &AggregateInstruction, b: &AggregateInstruction) -> bool {
        if a.shared_qubits(b).is_empty() {
            return true;
        }
        let structural = a.constituents.iter().all(|x| {
            b.constituents
                .iter()
                .all(|y| commute::commute_structural(x, y))
        });
        if structural || (is_diagonal(a) && is_diagonal(b)) {
            return true;
        }
        let mut support = a.qubits.clone();
        for &q in &b.qubits {
            if !support.contains(&q) {
                support.push(q);
            }
        }
        if support.len() > 4 {
            return false;
        }
        support.sort_unstable();
        let ua = product(&a.constituents, &support);
        let ub = product(&b.constituents, &support);
        ua.matmul(&ub).approx_eq(&ub.matmul(&ua), 1e-9)
    }

    /// Groups per qubit: `groups[q]` lists the groups of qubit `q` in order.
    pub(super) fn groups(instrs: &[AggregateInstruction]) -> BTreeMap<usize, Vec<Vec<usize>>> {
        let mut per_qubit: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (idx, inst) in instrs.iter().enumerate() {
            for &q in &inst.qubits {
                per_qubit.entry(q).or_default().push(idx);
            }
        }
        let mut groups = BTreeMap::new();
        for (q, order) in per_qubit {
            let mut qgroups: Vec<Vec<usize>> = Vec::new();
            for &idx in &order {
                let fits_last = qgroups.last().is_some_and(|last| {
                    last.iter()
                        .all(|&other| commutes(&instrs[idx], &instrs[other]))
                });
                if fits_last {
                    qgroups.last_mut().expect("non-empty").push(idx);
                } else {
                    qgroups.push(vec![idx]);
                }
            }
            groups.insert(q, qgroups);
        }
        groups
    }

    pub(super) fn schedule(instrs: &[AggregateInstruction], latencies: &[f64]) -> ClsResult {
        let n = instrs.len();
        if n == 0 {
            return ClsResult {
                order: Vec::new(),
                rounds: 0,
            };
        }
        let groups = groups(instrs);
        let mut group_cursor: BTreeMap<usize, usize> = BTreeMap::new();
        let mut scheduled = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut rounds = 0usize;
        let qubit_ids: Vec<usize> = groups.keys().copied().collect();
        let max_qubit = qubit_ids.iter().copied().max().unwrap_or(0);

        while order.len() < n {
            rounds += 1;
            for &q in &qubit_ids {
                let qgroups = &groups[&q];
                let cursor = group_cursor.entry(q).or_insert(0);
                while *cursor < qgroups.len() && qgroups[*cursor].iter().all(|&i| scheduled[i]) {
                    *cursor += 1;
                }
            }
            let candidates: Vec<usize> = (0..n)
                .filter(|&i| !scheduled[i])
                .filter(|&i| {
                    instrs[i].qubits.iter().all(|q| {
                        let cursor = group_cursor.get(q).copied().unwrap_or(0);
                        groups
                            .get(q)
                            .and_then(|qg| qg.get(cursor))
                            .map(|g| g.contains(&i))
                            .unwrap_or(false)
                    })
                })
                .collect();
            if candidates.is_empty() {
                let fallback = (0..n)
                    .find(|&i| !scheduled[i])
                    .expect("unscheduled remains");
                scheduled[fallback] = true;
                order.push(fallback);
                continue;
            }
            let mut conflict = Graph::new(max_qubit + 1);
            let mut edge_to_candidate: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            let mut selected: Vec<usize> = Vec::new();
            for &i in &candidates {
                match instrs[i].qubits.len() {
                    1 => selected.push(i),
                    2 => {
                        let a = instrs[i].qubits[0].min(instrs[i].qubits[1]);
                        let b = instrs[i].qubits[0].max(instrs[i].qubits[1]);
                        if let std::collections::btree_map::Entry::Vacant(slot) =
                            edge_to_candidate.entry((a, b))
                        {
                            slot.insert(i);
                            conflict.add_edge(a, b, latencies[i].max(1e-9));
                        }
                    }
                    _ => selected.push(i),
                }
            }
            for (a, b) in matching::improved_matching(&conflict) {
                if let Some(&i) = edge_to_candidate.get(&(a.min(b), a.max(b))) {
                    selected.push(i);
                }
            }
            let mut used_qubits: Vec<bool> = vec![false; max_qubit + 1];
            selected.sort_unstable();
            let mut emitted_this_round = Vec::new();
            for i in selected {
                if instrs[i].qubits.iter().any(|&q| used_qubits[q]) {
                    continue;
                }
                for &q in &instrs[i].qubits {
                    used_qubits[q] = true;
                }
                scheduled[i] = true;
                emitted_this_round.push(i);
            }
            if emitted_this_round.is_empty() {
                let fallback = candidates[0];
                scheduled[fallback] = true;
                emitted_this_round.push(fallback);
            }
            emitted_this_round.sort_unstable();
            order.extend(emitted_this_round);
        }
        ClsResult { order, rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use crate::instr::InstructionOrigin;
    use crate::schedule::asap_schedule;
    use proptest::prelude::*;
    use qcc_ir::{Circuit, Gate, Instruction};

    fn zz(a: usize, b: usize, theta: f64) -> AggregateInstruction {
        AggregateInstruction::from_gates(
            vec![
                Instruction::new(Gate::Cnot, vec![a, b]),
                Instruction::new(Gate::Rz(theta), vec![b]),
                Instruction::new(Gate::Cnot, vec![a, b]),
            ],
            InstructionOrigin::DiagonalBlock,
        )
    }

    #[test]
    fn commutation_groups_for_diagonal_chain() {
        // Three ZZ blocks along a line: on the shared qubits they all commute,
        // so each qubit has a single group.
        let instrs = vec![zz(0, 1, 0.5), zz(1, 2, 0.5), zz(2, 3, 0.5)];
        let groups = CommutationGroups::build(&instrs);
        assert_eq!(groups.group_count(1), 1);
        assert_eq!(groups.group_count(2), 1);
        assert!(groups.can_reorder(&instrs, 0, 1));
        assert!(groups.can_reorder(&instrs, 1, 2));
    }

    #[test]
    fn commutation_groups_break_at_non_commuting_gates() {
        let h = AggregateInstruction::from_gate(Instruction::new(Gate::H, vec![1]));
        let instrs = vec![zz(0, 1, 0.5), h, zz(0, 1, 0.8)];
        let groups = CommutationGroups::build(&instrs);
        // Qubit 1 sees block / H / block: three groups.
        assert_eq!(groups.group_count(1), 3);
        assert!(!groups.can_reorder(&instrs, 0, 2));
    }

    #[test]
    fn cls_parallelizes_commuting_chain() {
        // ZZ blocks along a 6-qubit line, emitted in chain order. Without CLS
        // they serialize (5 rounds); with CLS they fit in 2 rounds.
        let instrs: Vec<AggregateInstruction> = (0..5).map(|i| zz(i, i + 1, 0.4)).collect();
        let lat = vec![30.0; instrs.len()];
        let baseline = asap_schedule(&instrs, &lat).makespan;
        let result = schedule(&instrs, &lat);
        let reordered = apply_order(&instrs, &result.order);
        let optimized = asap_schedule(&reordered, &lat).makespan;
        assert!((baseline - 150.0).abs() < 1e-9);
        assert!((optimized - 60.0).abs() < 1e-9, "optimized = {optimized}");
        assert!(result.rounds <= 3);
    }

    #[test]
    fn cls_respects_real_dependences() {
        // H(1) between two blocks on (0,1): the second block must stay after
        // the H on qubit 1.
        let h = AggregateInstruction::from_gate(Instruction::new(Gate::H, vec![1]));
        let instrs = vec![zz(0, 1, 0.5), h.clone(), zz(0, 1, 0.8)];
        let lat = vec![30.0, 5.0, 30.0];
        let result = schedule(&instrs, &lat);
        let pos = |idx: usize| result.order.iter().position(|&x| x == idx).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn cls_output_is_a_permutation() {
        let circuit = {
            let mut c = Circuit::new(4);
            for q in 0..4 {
                c.push(Gate::H, &[q]);
            }
            for i in 0..3 {
                c.push(Gate::Cnot, &[i, i + 1]);
                c.push(Gate::Rz(0.3), &[i + 1]);
                c.push(Gate::Cnot, &[i, i + 1]);
            }
            for q in 0..4 {
                c.push(Gate::Rx(0.9), &[q]);
            }
            c
        };
        let instrs = frontend::run(&circuit);
        let lat = vec![10.0; instrs.len()];
        let result = schedule(&instrs, &lat);
        let mut sorted = result.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..instrs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn cls_preserves_circuit_semantics() {
        let circuit = {
            let mut c = Circuit::new(4);
            for q in 0..4 {
                c.push(Gate::H, &[q]);
            }
            for i in 0..3 {
                c.push(Gate::Cnot, &[i, i + 1]);
                c.push(Gate::Rz(0.3 + i as f64 * 0.2), &[i + 1]);
                c.push(Gate::Cnot, &[i, i + 1]);
            }
            for q in 0..4 {
                c.push(Gate::Rx(0.9), &[q]);
            }
            c
        };
        let instrs = frontend::run(&circuit);
        let lat = vec![10.0; instrs.len()];
        let result = schedule(&instrs, &lat);
        let reordered = apply_order(&instrs, &result.order);
        let rebuilt = frontend::to_circuit(&reordered, circuit.n_qubits());
        assert!(rebuilt
            .unitary()
            .approx_eq_up_to_phase(&circuit.unitary(), 1e-9));
    }

    #[test]
    fn cls_never_increases_makespan_on_detected_circuits() {
        // QAOA-like ring of blocks.
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.push(Gate::H, &[q]);
        }
        for i in 0..5 {
            let a = i;
            let b = (i + 1) % 5;
            c.push(Gate::Cnot, &[a, b]);
            c.push(Gate::Rz(1.0), &[b]);
            c.push(Gate::Cnot, &[a, b]);
        }
        let instrs = frontend::run(&c);
        let lat: Vec<f64> = instrs
            .iter()
            .map(|i| 10.0 * i.gate_count() as f64)
            .collect();
        let before = asap_schedule(&instrs, &lat).makespan;
        let result = schedule(&instrs, &lat);
        let reordered = apply_order(&instrs, &result.order);
        let reordered_lat: Vec<f64> = result.order.iter().map(|&i| lat[i]).collect();
        let after = asap_schedule(&reordered, &reordered_lat).makespan;
        assert!(after <= before + 1e-9, "after {after} > before {before}");
    }

    /// A random stream on `n` qubits mixing commuting diagonal blocks with
    /// gates that break groups: `(kind, qubit seeds, angle)` per instruction.
    fn random_stream(
        n: usize,
        picks: &[(usize, (usize, usize, usize), f64)],
    ) -> Vec<AggregateInstruction> {
        picks
            .iter()
            .map(|&(kind, (a, b, c), theta)| {
                let mut qs = vec![a % n];
                for seed in [b, c] {
                    let mut q = seed % n;
                    while qs.contains(&q) {
                        q = (q + 1) % n;
                    }
                    qs.push(q);
                }
                let gate = |g: Gate, k: usize| {
                    AggregateInstruction::from_gate(Instruction::new(g, qs[..k].to_vec()))
                };
                match kind {
                    0 | 1 => zz(qs[0], qs[1], theta),
                    2 => gate(Gate::Rz(theta), 1),
                    3 => gate(Gate::H, 1),
                    4 => gate(Gate::Rx(theta), 1),
                    5 => gate(Gate::Cnot, 2),
                    6 => gate(Gate::Cz, 2),
                    7 => gate(Gate::Swap, 2),
                    _ => gate(Gate::Toffoli, 3),
                }
            })
            .collect()
    }

    /// A random aggregate on a register of `reg` qubits: `width` distinct
    /// qubits picked by `seeds`, and one gate of any kind per pick (kind 23
    /// is a whole CNOT–Rz–CNOT block), on qubits of that support in random
    /// operand order. Gates wider than the support become an Rz. A
    /// `diagonal` aggregate draws only diagonal gates and blocks.
    fn random_aggregate(
        reg: usize,
        width: usize,
        (a, b, c, d): (usize, usize, usize, usize),
        diagonal: bool,
        picks: &[(usize, (usize, usize, usize), f64)],
    ) -> AggregateInstruction {
        use Gate::*;
        const DIAGONAL_KINDS: [usize; 12] = [0, 3, 5, 6, 7, 8, 11, 12, 14, 15, 19, 23];
        let mut support = Vec::new();
        for seed in &[a, b, c, d][..width] {
            let mut q = seed % reg;
            while support.contains(&q) {
                q = (q + 1) % reg;
            }
            support.push(q);
        }
        let mut gates = Vec::new();
        for &(kind, (x, y, z), t) in picks {
            let kind = if diagonal {
                DIAGONAL_KINDS[kind % DIAGONAL_KINDS.len()]
            } else {
                kind
            };
            let mut qs: Vec<usize> = Vec::new();
            for seed in [x, y, z].iter().take(width) {
                let mut i = seed % width;
                while qs.contains(&support[i]) {
                    i = (i + 1) % width;
                }
                qs.push(support[i]);
            }
            let gate = match kind {
                0 => I,
                1 => X,
                2 => Y,
                3 => Z,
                4 => H,
                5 => S,
                6 => Sdg,
                7 => T,
                8 => Tdg,
                9 => Rx(t),
                10 => Ry(t),
                11 => Rz(t),
                12 => Phase(t),
                13 | 23 => Cnot,
                14 => Cz,
                15 => CPhase(t),
                16 => Swap,
                17 => ISwap,
                18 => SqrtISwap,
                19 => Rzz(t),
                20 => Rxy(t),
                21 => Toffoli,
                _ => Fredkin,
            };
            let gate = if gate.arity() <= qs.len() {
                gate
            } else {
                Rz(t)
            };
            qs.truncate(gate.arity());
            if kind == 23 && qs.len() == 2 {
                gates.push(Instruction::new(Cnot, qs.clone()));
                gates.push(Instruction::new(Rz(t), vec![qs[1]]));
            }
            gates.push(Instruction::new(gate, qs));
        }
        AggregateInstruction::from_gates(gates, InstructionOrigin::Aggregated)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every memo answer, cached or computed, equals the uncached
        /// reference decision, in both orders.
        #[test]
        fn memo_decisions_match_the_uncached_reference(
            reg in 2usize..7,
            aggregates in prop::collection::vec(
                (
                    1usize..5,
                    (0usize..64, 0usize..64, 0usize..64, 0usize..64),
                    0usize..3,
                    prop::collection::vec(
                        (0usize..25, (0usize..64, 0usize..64, 0usize..64), -3.1f64..3.1),
                        1..13,
                    ),
                ),
                2..9,
            ),
        ) {
            // Flavour 0 draws any gates, 1 only diagonal ones, and 2 repeats
            // the previous aggregate (a same-shape question).
            let mut instrs: Vec<AggregateInstruction> = Vec::new();
            for (width, seeds, flavour, picks) in &aggregates {
                if let (2, Some(last)) = (flavour, instrs.last()) {
                    instrs.push(last.clone());
                    continue;
                }
                let width = (*width).min(reg);
                instrs.push(random_aggregate(reg, width, *seeds, *flavour == 1, picks));
            }
            let mut memo = CommutationMemo::new(&instrs);
            for _ in 0..2 {
                for a in 0..instrs.len() {
                    for b in 0..instrs.len() {
                        let want = reference::commutes(&instrs[a], &instrs[b]);
                        prop_assert_eq!((a, b, memo.commutes(a, b)), (a, b, want));
                    }
                }
            }
        }

        #[test]
        fn ready_set_schedule_matches_the_full_scan_reference(
            n in 3usize..9,
            picks in prop::collection::vec(
                (0usize..9, (0usize..64, 0usize..64, 0usize..64), 0.05f64..3.1),
                1..81,
            ),
            lat_picks in prop::collection::vec(0usize..4, 81..82),
        ) {
            let instrs = random_stream(n, &picks);
            // Few distinct latencies, so equal edge weights are common.
            let lat: Vec<f64> = (0..instrs.len())
                .map(|i| [10.0, 20.0, 30.0, 17.5][lat_picks[i]])
                .collect();
            let groups = CommutationGroups::build(&instrs);
            for (q, want) in reference::groups(&instrs) {
                let got: Vec<Vec<usize>> = groups.groups_on(q).map(|g| g.to_vec()).collect();
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(schedule(&instrs, &lat), reference::schedule(&instrs, &lat));
        }
    }
}
