//! The checker must accept kernel-routed graphs identically.
//!
//! Routing `Tape` matmuls through dc-tensor's blocked parallel kernels
//! changes how ops *execute*, not what the tape *records*: the op arena
//! dc-check's passes walk is the same graph the serial path records.
//! These tests pin that down on a graph large enough that its forward
//! and backward matmuls actually cross the parallel dispatch threshold,
//! and re-run the finite-difference audit over the matmul family whose
//! backward rules now execute on the new kernels.

use dc_check::{audit_op, sanitize, OpKind};
use dc_tensor::{kernel, op_name, Tape, Tensor};

/// Deterministic probe tensor in roughly [-1.6, 1.4].
fn probe(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i * 37 + salt * 53) % 11) as f32 * 0.3 - 1.6)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[test]
fn kernel_routed_graph_passes_the_numeric_pass() {
    // 112³ ≈ 1.4M madds — above MATMUL_PAR_THRESHOLD, so the forward
    // matmul and both backward matmuls (matmul_t / t_matmul) run on the
    // pool-dispatched kernels rather than the small-matrix serial path.
    let n = 112;
    assert!(n * n * n > kernel::MATMUL_PAR_THRESHOLD);

    let tape = Tape::new();
    let x = tape.var(probe(n, n, 1));
    let w = tape.var(probe(n, n, 2));
    let b = tape.var(Tensor::zeros(1, n));
    let h = tape.tanh(tape.add_row(tape.matmul(x, w), b));
    let loss = tape.mean(tape.mul(h, h));

    tape.backward(loss);
    assert!(
        sanitize(&tape).is_empty(),
        "kernel-routed forward/backward produced non-finite values"
    );
}

#[test]
fn tape_records_identical_ops_regardless_of_kernel_dispatch() {
    // The recorded op sequence must not depend on whether a matmul took
    // the serial or the pooled path — same graph above and below the
    // threshold, just different shapes.
    let record = |n: usize| -> Vec<&'static str> {
        let tape = Tape::new();
        let x = tape.var(probe(n, n, 1));
        let w = tape.var(probe(n, n, 2));
        let h = tape.matmul(x, w);
        let _ = tape.sum(tape.mul(h, h));
        let mut names = Vec::with_capacity(tape.len());
        tape.for_each_node(|_, op, _, _| names.push(op_name(op)));
        names
    };
    let small = record(4); // serial path
    let large = record(128); // pooled path
    assert_eq!(small, large);
}

#[test]
fn matmul_family_backward_rules_audit_clean_on_new_kernels() {
    for kind in [OpKind::MatMul, OpKind::AddRow] {
        let audit = audit_op(kind, 1e-2, 1e-2);
        assert!(
            audit.pass,
            "{kind:?} backward rule fails finite-difference audit on blocked kernels \
             (max rel err {})",
            audit.max_rel_err
        );
    }
}
