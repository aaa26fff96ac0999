//! Graph lints: legal-but-suspect structure.
//!
//! These diagnostics are advisory ([`Defect::is_warning`] is true for
//! all but a foreign root): the graph runs, but almost certainly not as
//! intended — a dead parameter never trains, an unused node wastes a
//! forward pass, a second `backward` silently replaces the first run's
//! gradients.

use crate::diag::{Defect, GraphError};
use dc_tensor::{op_name, Op, Tape, Var};

/// Lint a recorded tape against the backward root `root`.
///
/// Reports, in arena order:
/// * [`Defect::CrossTapeVar`] — `root` was minted by another tape (no
///   further lints run; indices would be meaningless);
/// * [`Defect::DeadParameter`] — parameter leaves recorded before `root`
///   that backward will never reach (their gradient stays zero);
/// * [`Defect::UnusedNode`] — non-leaf nodes before `root` feeding
///   neither `root` nor anything else that does;
/// * [`Defect::DoubleBackward`] — `backward` has already run more than
///   once on this tape.
///
/// Nodes recorded *after* `root` are deliberately not linted: define-by-run
/// code routinely records metric heads past the loss node.
pub fn lint_graph(tape: &Tape, root: Var) -> Vec<GraphError> {
    if root.tape_id() != tape.id() {
        return vec![GraphError {
            node: root.index(),
            op: "backward root",
            defect: Defect::CrossTapeVar,
            expected: format!("a Var from tape {}", tape.id()),
            got: format!(
                "Var {{ index: {}, tape: {} }}",
                root.index(),
                root.tape_id()
            ),
        }];
    }

    // Reverse reachability from the root over operand edges. The arena is
    // topologically ordered, so one descending sweep starting at the root
    // settles every node.
    let n = tape.len();
    let mut reachable = vec![false; n];
    if root.index() < n {
        reachable[root.index()] = true;
    }
    let mut ops: Vec<(bool, Vec<usize>)> = Vec::with_capacity(n);
    let mut names: Vec<&'static str> = Vec::with_capacity(n);
    tape.for_each_node(|_, op, _, _| {
        let mut inputs = Vec::new();
        op.for_each_input(|v| inputs.push(v.index()));
        ops.push((matches!(op, Op::Leaf), inputs));
        names.push(op_name(op));
    });
    for i in (0..=root.index().min(n.saturating_sub(1))).rev() {
        if reachable[i] {
            for &a in &ops[i].1 {
                reachable[a] = true;
            }
        }
    }

    let mut warnings = Vec::new();
    for i in 0..root.index() {
        if reachable[i] {
            continue;
        }
        let (is_leaf, _) = &ops[i];
        warnings.push(GraphError {
            node: i,
            op: names[i],
            defect: if *is_leaf {
                Defect::DeadParameter
            } else {
                Defect::UnusedNode
            },
            expected: format!("reachable from backward root (node {})", root.index()),
            got: "unreachable — zero gradient".to_string(),
        });
    }

    if tape.backward_runs() > 1 {
        warnings.push(GraphError {
            node: root.index(),
            op: "backward",
            defect: Defect::DoubleBackward,
            expected: "one backward() per tape".to_string(),
            got: format!(
                "{} runs — each replaces the previous gradients",
                tape.backward_runs()
            ),
        });
    }

    warnings
}
