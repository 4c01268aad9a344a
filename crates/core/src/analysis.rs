//! Template conformance analysis (paper Fig. 1a).
//!
//! Before transforming, the compiler checks that the annotated parent kernel
//! follows the basic-dp template — prework, a single (possibly nested) child
//! launch, optional postwork — classifies the child kernel's launch
//! configuration (solo-thread / solo-block / multi-block, Section IV.C),
//! and maps every launch argument to either a *uniform pass-through* (same
//! value for every launching thread) or a *buffered work item variable*
//! (named in the directive's `work` clause).

use dpcons_ir::ast::{visit_stmts, Expr, Kernel, Module, Stmt};
use dpcons_ir::BinOp;

use crate::directive::{Directive, DirectiveError, Granularity};

/// Launch-configuration class of the child kernel (Section IV.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildClass {
    /// `<<<1, 1>>>`: one thread processes the whole work item.
    SoloThread,
    /// `<<<1, T>>>`: one cooperative block per work item.
    SoloBlock,
    /// `<<<B, T>>>`: the whole child grid cooperates on one work item.
    MultiBlock,
}

impl ChildClass {
    pub fn label(self) -> &'static str {
        match self {
            ChildClass::SoloThread => "solo-thread",
            ChildClass::SoloBlock => "solo-block",
            ChildClass::MultiBlock => "multi-block",
        }
    }
}

/// Errors raised by analysis or transformation, with enough context to point
/// the programmer at the offending construct.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    UnknownKernel { name: String },
    NoLaunch { kernel: String },
    MultipleLaunches { kernel: String, count: usize },
    WorkVarNotInLaunch { var: String, kernel: String },
    NonUniformArg { kernel: String, position: usize, detail: String },
    UnsupportedBuiltinInChild { child: String, builtin: String, class: &'static str },
    NestedChildLaunch { child: String },
    RecursionWithPostwork { kernel: String },
    WarpLevelDeviceSync { kernel: String },
    Directive(DirectiveError),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::UnknownKernel { name } => write!(f, "unknown kernel `{name}`"),
            TransformError::NoLaunch { kernel } => write!(
                f,
                "kernel `{kernel}` contains no device-side launch; nothing to consolidate"
            ),
            TransformError::MultipleLaunches { kernel, count } => write!(
                f,
                "kernel `{kernel}` contains {count} launch sites; the basic-dp template \
                 expects exactly one"
            ),
            TransformError::WorkVarNotInLaunch { var, kernel } => write!(
                f,
                "work variable `{var}` is not an argument of the child launch in `{kernel}`"
            ),
            TransformError::NonUniformArg { kernel, position, detail } => write!(
                f,
                "launch argument {position} in `{kernel}` is not uniform across threads \
                 ({detail}); add the variable to the directive's work() clause"
            ),
            TransformError::UnsupportedBuiltinInChild { child, builtin, class } => write!(
                f,
                "child kernel `{child}` uses `{builtin}` but is classified {class}; \
                 the consolidated fetch loop cannot preserve its meaning"
            ),
            TransformError::NestedChildLaunch { child } => write!(
                f,
                "child kernel `{child}` itself launches kernels; only direct recursion is \
                 supported"
            ),
            TransformError::RecursionWithPostwork { kernel } => write!(
                f,
                "recursive kernel `{kernel}` has postwork after the recursive launch; \
                 not supported"
            ),
            TransformError::WarpLevelDeviceSync { kernel } => write!(
                f,
                "kernel `{kernel}` uses cudaDeviceSynchronize, which warp-level \
                 consolidation cannot preserve"
            ),
            TransformError::Directive(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<DirectiveError> for TransformError {
    fn from(e: DirectiveError) -> Self {
        TransformError::Directive(e)
    }
}

/// Constant-fold an expression consisting only of literals and arithmetic.
pub fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::I(v) => Some(*v),
        Expr::Un(op, a) => {
            let a = const_eval(a)?;
            Some(match op {
                dpcons_ir::UnOp::Neg => a.wrapping_neg(),
                dpcons_ir::UnOp::Not => (a == 0) as i64,
            })
        }
        Expr::Bin(op, a, b) => {
            let a = const_eval(a)?;
            let b = const_eval(b)?;
            Some(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_div(b)
                }
                BinOp::Rem => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_rem(b)
                }
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                _ => return None,
            })
        }
        _ => None,
    }
}

/// The single launch site of a template-conforming parent kernel.
#[derive(Debug, Clone)]
pub struct LaunchInfo {
    pub target: String,
    pub grid: Expr,
    pub block: Expr,
    pub args: Vec<Expr>,
    /// Index of the top-level parent statement containing the launch.
    pub top_level_index: usize,
    pub class: ChildClass,
    /// Launch-argument positions whose value is buffered as a work item, in
    /// buffer layout order.
    pub buffered: Vec<usize>,
    /// Launch-argument positions passed through unchanged.
    pub passthrough: Vec<usize>,
}

/// Result of the template analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub launch: LaunchInfo,
    /// True when parent and child are the same kernel (parallel recursion).
    pub recursive: bool,
    /// True when top-level statements follow the launch-containing statement.
    pub has_postwork: bool,
    /// True when the parent synchronizes with its children explicitly.
    pub has_device_sync: bool,
}

fn collect_launches(body: &[Stmt]) -> Vec<&Stmt> {
    let mut out = Vec::new();
    visit_stmts(body, &mut |s| {
        if matches!(s, Stmt::Launch { .. }) {
            out.push(s);
        }
    });
    out
}

fn contains_launch(s: &Stmt) -> bool {
    let mut found = false;
    visit_stmts(std::slice::from_ref(s), &mut |x| {
        if matches!(x, Stmt::Launch { .. }) {
            found = true;
        }
    });
    found
}

fn contains_device_sync(body: &[Stmt]) -> bool {
    let mut found = false;
    visit_stmts(body, &mut |x| {
        if matches!(x, Stmt::DeviceSync) {
            found = true;
        }
    });
    found
}

/// Builtins that make an expression thread-dependent.
fn non_uniform_builtin(e: &Expr) -> Option<&'static str> {
    let mut found = None;
    dpcons_ir::visit_expr(e, &mut |x| {
        let b = match x {
            Expr::Gtid => Some("global thread id"),
            Expr::Tid => Some("threadIdx.x"),
            Expr::CtaId => Some("blockIdx.x"),
            _ => None,
        };
        if found.is_none() {
            found = b;
        }
    });
    found
}

/// Check whether `e` is uniform across launching threads: every named
/// reference must be a kernel parameter and no thread-identity builtin may
/// appear. (Loads at uniform indices are treated as uniform: the template
/// performs them before any thread-divergent writes.)
fn check_uniform(parent: &Kernel, e: &Expr) -> Result<(), String> {
    if let Some(b) = non_uniform_builtin(e) {
        return Err(format!("uses {b}"));
    }
    for name in dpcons_ir::expr_refs(e) {
        if parent.param_index(&name).is_none() {
            return Err(format!("references local variable `{name}`"));
        }
    }
    Ok(())
}

/// Builtins a child-kernel body may not use, per class: the fetch loop
/// re-maps thread identities, so identities the original config pinned to a
/// constant would change meaning.
fn forbidden_child_builtins(class: ChildClass) -> &'static [(&'static str, fn(&Expr) -> bool)] {
    fn is_tid(e: &Expr) -> bool {
        matches!(e, Expr::Tid)
    }
    fn is_gtid(e: &Expr) -> bool {
        matches!(e, Expr::Gtid)
    }
    fn is_cta(e: &Expr) -> bool {
        matches!(e, Expr::CtaId)
    }
    fn is_ncta(e: &Expr) -> bool {
        matches!(e, Expr::NCta)
    }
    fn is_ntid(e: &Expr) -> bool {
        matches!(e, Expr::NTid)
    }
    match class {
        ChildClass::SoloThread => &[
            ("threadIdx.x", is_tid as fn(&Expr) -> bool),
            ("global thread id", is_gtid),
            ("blockIdx.x", is_cta),
            ("blockDim.x", is_ntid),
            ("gridDim.x", is_ncta),
        ],
        ChildClass::SoloBlock => &[
            ("global thread id", is_gtid as fn(&Expr) -> bool),
            ("blockIdx.x", is_cta),
            ("gridDim.x", is_ncta),
        ],
        ChildClass::MultiBlock => &[],
    }
}

/// Run the full template analysis for `parent_name` under `directive`.
pub fn analyze(
    module: &Module,
    parent_name: &str,
    directive: &Directive,
) -> Result<Analysis, TransformError> {
    let parent = module
        .get(parent_name)
        .ok_or_else(|| TransformError::UnknownKernel { name: parent_name.to_string() })?;

    // Exactly one launch site.
    let launches = collect_launches(&parent.body);
    match launches.len() {
        0 => return Err(TransformError::NoLaunch { kernel: parent_name.to_string() }),
        1 => {}
        n => {
            return Err(TransformError::MultipleLaunches {
                kernel: parent_name.to_string(),
                count: n,
            })
        }
    }
    let Stmt::Launch { kernel: target, grid, block, args } = launches[0] else { unreachable!() };

    let child =
        module.get(target).ok_or_else(|| TransformError::UnknownKernel { name: target.clone() })?;
    let recursive = target == parent_name;

    // Only direct recursion may nest further launches.
    if !recursive && !collect_launches(&child.body).is_empty() {
        return Err(TransformError::NestedChildLaunch { child: target.clone() });
    }

    // Classify the child configuration.
    let class = match (const_eval(grid), const_eval(block)) {
        (Some(1), Some(1)) => ChildClass::SoloThread,
        (Some(1), _) => ChildClass::SoloBlock,
        _ => ChildClass::MultiBlock,
    };

    // Child-body builtin restrictions (skip the recursive case: the recursive
    // body is rewritten as a whole and its launch region re-derived).
    if !recursive {
        for (name, pred) in forbidden_child_builtins(class) {
            let mut bad = false;
            visit_stmts(&child.body, &mut |s| {
                dpcons_ir::stmt_exprs(s, &mut |e| {
                    let mut hit = false;
                    dpcons_ir::visit_expr(e, &mut |x| hit |= pred(x));
                    bad |= hit;
                });
            });
            if bad {
                return Err(TransformError::UnsupportedBuiltinInChild {
                    child: target.clone(),
                    builtin: name.to_string(),
                    class: class.label(),
                });
            }
        }
    }

    // Map launch args to buffered / pass-through.
    let mut buffered = Vec::new();
    let mut passthrough = Vec::new();
    for (i, a) in args.iter().enumerate() {
        let is_work = matches!(a, Expr::Ref(n) if directive.work.iter().any(|w| w == n));
        if is_work {
            buffered.push(i);
        } else {
            check_uniform(parent, a).map_err(|detail| TransformError::NonUniformArg {
                kernel: parent_name.to_string(),
                position: i,
                detail,
            })?;
            passthrough.push(i);
        }
    }
    for w in &directive.work {
        let used = args.iter().any(|a| matches!(a, Expr::Ref(n) if n == w));
        if !used {
            return Err(TransformError::WorkVarNotInLaunch {
                var: w.clone(),
                kernel: parent_name.to_string(),
            });
        }
    }

    // Pre/postwork split at the top-level statement containing the launch.
    let top_level_index = parent
        .body
        .iter()
        .position(contains_launch)
        .ok_or_else(|| TransformError::NoLaunch { kernel: parent_name.to_string() })?;
    let has_postwork = top_level_index + 1 < parent.body.len();
    if recursive && has_postwork {
        return Err(TransformError::RecursionWithPostwork { kernel: parent_name.to_string() });
    }

    let has_device_sync = contains_device_sync(&parent.body);
    if has_device_sync && directive.granularity == Granularity::Warp {
        return Err(TransformError::WarpLevelDeviceSync { kernel: parent_name.to_string() });
    }

    Ok(Analysis {
        launch: LaunchInfo {
            target: target.clone(),
            grid: grid.clone(),
            block: block.clone(),
            args: args.clone(),
            top_level_index,
            class,
            buffered,
            passthrough,
        },
        recursive,
        has_postwork,
        has_device_sync,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_ir::dsl::*;

    fn sample_module() -> Module {
        let mut m = Module::new();
        // Child: solo-block cooperative worker.
        m.add(KernelBuilder::new("child").array("data").scalar("item").body(vec![for_step(
            "j",
            tid(),
            load(v("data"), v("item")),
            ntid(),
            vec![compute(i(1))],
        )]));
        // Parent: basic-dp template.
        m.add(KernelBuilder::new("parent").array("data").scalar("n").scalar("thr").body(vec![
            let_("id", gtid()),
            when(
                lt(v("id"), v("n")),
                vec![
                    let_("deg", load(v("data"), v("id"))),
                    if_(
                        gt(v("deg"), v("thr")),
                        vec![launch("child", i(1), i(128), vec![v("data"), v("id")])],
                        vec![compute(v("deg"))],
                    ),
                ],
            ),
        ]));
        m
    }

    #[test]
    fn analyzes_template_parent() {
        let m = sample_module();
        let d = Directive::parse("dp consldt(block) work(id)").unwrap();
        let a = analyze(&m, "parent", &d).unwrap();
        assert_eq!(a.launch.target, "child");
        assert_eq!(a.launch.class, ChildClass::SoloBlock);
        assert!(!a.recursive);
        assert!(!a.has_postwork);
        assert_eq!(a.launch.buffered, vec![1]);
        assert_eq!(a.launch.passthrough, vec![0]);
        assert_eq!(a.launch.top_level_index, 1);
    }

    #[test]
    fn detects_postwork() {
        let mut m = sample_module();
        m.get_mut("parent").unwrap().body.push(compute(i(5)));
        let d = Directive::parse("dp consldt(grid) work(id)").unwrap();
        let a = analyze(&m, "parent", &d).unwrap();
        assert!(a.has_postwork);
    }

    #[test]
    fn missing_work_var_reported() {
        let m = sample_module();
        let d = Directive::parse("dp consldt(block) work(nope)").unwrap();
        let e = analyze(&m, "parent", &d).unwrap_err();
        // `id` is thread-local, so arg 1 is non-uniform and not buffered.
        assert!(matches!(
            e,
            TransformError::NonUniformArg { .. } | TransformError::WorkVarNotInLaunch { .. }
        ));
    }

    #[test]
    fn thread_local_arg_must_be_buffered() {
        let m = sample_module();
        // Buffering only something else leaves `id` non-uniform.
        let d = Directive {
            work: vec!["data".to_string()],
            ..Directive::parse("dp consldt(block) work(id)").unwrap()
        };
        let e = analyze(&m, "parent", &d).unwrap_err();
        assert!(matches!(e, TransformError::NonUniformArg { position: 1, .. }));
    }

    #[test]
    fn no_launch_is_an_error() {
        let mut m = Module::new();
        m.add(KernelBuilder::new("flat").body(vec![compute(i(1))]));
        let d = Directive::parse("dp consldt(warp) work(x)").unwrap();
        assert!(matches!(analyze(&m, "flat", &d).unwrap_err(), TransformError::NoLaunch { .. }));
    }

    #[test]
    fn multiple_launches_rejected() {
        let mut m = sample_module();
        m.get_mut("parent").unwrap().body.push(launch(
            "child",
            i(1),
            i(32),
            vec![v("data"), v("n")],
        ));
        let d = Directive::parse("dp consldt(block) work(id)").unwrap();
        assert!(matches!(
            analyze(&m, "parent", &d).unwrap_err(),
            TransformError::MultipleLaunches { count: 2, .. }
        ));
    }

    #[test]
    fn recursion_detected() {
        let mut m = Module::new();
        m.add(KernelBuilder::new("rec").array("t").scalar("node").body(vec![
            let_("c", load(v("t"), v("node"))),
            when(gt(v("c"), i(0)), vec![launch("rec", i(1), v("c"), vec![v("t"), v("c")])]),
        ]));
        let d = Directive::parse("dp consldt(grid) work(c)").unwrap();
        let a = analyze(&m, "rec", &d).unwrap();
        assert!(a.recursive);
        assert_eq!(a.launch.class, ChildClass::SoloBlock);
    }

    #[test]
    fn solo_thread_child_cannot_use_tid() {
        let mut m = Module::new();
        m.add(KernelBuilder::new("child").array("d").scalar("w").body(vec![store(
            v("d"),
            tid(),
            v("w"),
        )]));
        m.add(KernelBuilder::new("parent").array("d").body(vec![launch(
            "child",
            i(1),
            i(1),
            vec![v("d"), v("d")],
        )]));
        let d = Directive::parse("dp consldt(warp) work(w)").unwrap();
        // `w` is not an arg name here; use data arg... adjust directive:
        let d2 = Directive { work: vec!["d".to_string()], ..d };
        let e = analyze(&m, "parent", &d2).unwrap_err();
        assert!(matches!(e, TransformError::UnsupportedBuiltinInChild { .. }));
    }

    #[test]
    fn warp_level_device_sync_rejected() {
        let mut m = sample_module();
        let p = m.get_mut("parent").unwrap();
        p.body.push(Stmt::DeviceSync);
        let d = Directive::parse("dp consldt(warp) work(id)").unwrap();
        assert!(matches!(
            analyze(&m, "parent", &d).unwrap_err(),
            TransformError::WarpLevelDeviceSync { .. }
        ));
        let d2 = Directive::parse("dp consldt(grid) work(id)").unwrap();
        assert!(analyze(&m, "parent", &d2).is_ok());
    }

    #[test]
    fn const_eval_folds_arithmetic() {
        assert_eq!(const_eval(&add(i(2), mul(i(3), i(4)))), Some(14));
        assert_eq!(const_eval(&div(i(7), i(0))), None);
        assert_eq!(const_eval(&v("x")), None);
        assert_eq!(const_eval(&min_(i(3), i(9))), Some(3));
        assert_eq!(const_eval(&neg(i(5))), Some(-5));
    }
}
