//! CUDA-flavoured source emitter.
//!
//! Renders the name-based AST as readable CUDA-like C. The consolidation
//! compiler is source-to-source in the paper; emitting source makes every
//! transformation inspectable and lets golden tests pin the generated code
//! (compare the paper's Figure 4(b)).

use std::fmt::Write;

use crate::ast::{AllocScope, AtomicOp, BinOp, Expr, Kernel, Module, ParamKind, Stmt, UnOp};

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Min | BinOp::Max => unreachable!("rendered as calls"),
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::LAnd => "&&",
        BinOp::LOr => "||",
    }
}

/// Render an expression.
pub fn expr_to_string(e: &Expr) -> String {
    match e {
        Expr::I(v) => v.to_string(),
        Expr::Gtid => "(blockIdx.x * blockDim.x + threadIdx.x)".to_string(),
        Expr::Tid => "threadIdx.x".to_string(),
        Expr::CtaId => "blockIdx.x".to_string(),
        Expr::NTid => "blockDim.x".to_string(),
        Expr::NCta => "gridDim.x".to_string(),
        Expr::Depth => "__nesting_depth".to_string(),
        Expr::Ref(n) => n.clone(),
        Expr::Load(h, i) => format!("{}[{}]", expr_to_string(h), expr_to_string(i)),
        Expr::Un(UnOp::Neg, a) => format!("-({})", expr_to_string(a)),
        Expr::Un(UnOp::Not, a) => format!("!({})", expr_to_string(a)),
        Expr::Bin(BinOp::Min, a, b) => {
            format!("min({}, {})", expr_to_string(a), expr_to_string(b))
        }
        Expr::Bin(BinOp::Max, a, b) => {
            format!("max({}, {})", expr_to_string(a), expr_to_string(b))
        }
        Expr::Bin(op, a, b) => {
            format!("({} {} {})", expr_to_string(a), binop_str(*op), expr_to_string(b))
        }
    }
}

fn atomic_name(op: AtomicOp) -> &'static str {
    match op {
        AtomicOp::Add => "atomicAdd",
        AtomicOp::Min => "atomicMin",
        AtomicOp::Max => "atomicMax",
        AtomicOp::Exch => "atomicExch",
        AtomicOp::Cas => "atomicCAS",
    }
}

fn emit_stmts(out: &mut String, stmts: &[Stmt], indent: usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            Stmt::Let(n, e) => {
                let _ = writeln!(out, "{pad}long {n} = {};", expr_to_string(e));
            }
            Stmt::Assign(n, e) => {
                let _ = writeln!(out, "{pad}{n} = {};", expr_to_string(e));
            }
            Stmt::Store(h, i, v) => {
                let _ = writeln!(
                    out,
                    "{pad}{}[{}] = {};",
                    expr_to_string(h),
                    expr_to_string(i),
                    expr_to_string(v)
                );
            }
            Stmt::Atomic { op, old, handle, index, value, value2 } => {
                let mut call = format!(
                    "{}(&{}[{}], {}",
                    atomic_name(*op),
                    expr_to_string(handle),
                    expr_to_string(index),
                    expr_to_string(value),
                );
                if let (AtomicOp::Cas, Some(desired)) = (op, value2) {
                    call += &format!(", {}", expr_to_string(desired));
                }
                call.push(')');
                match old {
                    Some(n) => {
                        let _ = writeln!(out, "{pad}long {n} = {call};");
                    }
                    None => {
                        let _ = writeln!(out, "{pad}{call};");
                    }
                }
            }
            Stmt::If(c, t, e) => {
                let _ = writeln!(out, "{pad}if ({}) {{", expr_to_string(c));
                emit_stmts(out, t, indent + 1);
                if e.is_empty() {
                    let _ = writeln!(out, "{pad}}}");
                } else {
                    let _ = writeln!(out, "{pad}}} else {{");
                    emit_stmts(out, e, indent + 1);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
            Stmt::While(c, b) => {
                let _ = writeln!(out, "{pad}while ({}) {{", expr_to_string(c));
                emit_stmts(out, b, indent + 1);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::For { var, lo, hi, step, body } => {
                let _ = writeln!(
                    out,
                    "{pad}for (long {var} = {}; {var} < {}; {var} += {}) {{",
                    expr_to_string(lo),
                    expr_to_string(hi),
                    expr_to_string(step)
                );
                emit_stmts(out, body, indent + 1);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::Compute(e) => {
                let _ = writeln!(out, "{pad}__work({});", expr_to_string(e));
            }
            Stmt::Launch { kernel, grid, block, args } => {
                let args_s: Vec<String> = args.iter().map(expr_to_string).collect();
                let _ = writeln!(
                    out,
                    "{pad}{kernel}<<<{}, {}>>>({});",
                    expr_to_string(grid),
                    expr_to_string(block),
                    args_s.join(", ")
                );
            }
            Stmt::Sync => {
                let _ = writeln!(out, "{pad}__syncthreads();");
            }
            Stmt::DeviceSync => {
                let _ = writeln!(out, "{pad}cudaDeviceSynchronize();");
            }
            Stmt::Alloc { handle_var, offset_var, words, scope } => {
                let scope_s = match scope {
                    AllocScope::Warp => "warp",
                    AllocScope::Block => "block",
                };
                let _ = writeln!(
                    out,
                    "{pad}long* {handle_var}; long {offset_var} = __cons_alloc_{scope_s}(&{handle_var}, {});",
                    expr_to_string(words)
                );
            }
            Stmt::Return => {
                let _ = writeln!(out, "{pad}return;");
            }
        }
    }
}

/// Render one kernel as CUDA-like source.
pub fn kernel_to_string(k: &Kernel) -> String {
    let mut out = String::new();
    let params: Vec<String> = k
        .params
        .iter()
        .map(|p| match p.kind {
            ParamKind::Scalar => format!("long {}", p.name),
            ParamKind::Array => format!("long* {}", p.name),
        })
        .collect();
    let _ = writeln!(out, "__global__ void {}({}) {{", k.name, params.join(", "));
    emit_stmts(&mut out, &k.body, 1);
    let _ = writeln!(out, "}}");
    out
}

/// Render a whole module.
pub fn module_to_string(m: &Module) -> String {
    let mut out = String::new();
    for (i, k) in m.kernels.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&kernel_to_string(k));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn renders_expressions() {
        assert_eq!(expr_to_string(&add(v("a"), i(1))), "(a + 1)");
        assert_eq!(expr_to_string(&min_(v("a"), v("b"))), "min(a, b)");
        assert_eq!(
            expr_to_string(&load(v("p"), gtid())),
            "p[(blockIdx.x * blockDim.x + threadIdx.x)]"
        );
        assert_eq!(expr_to_string(&not(v("f"))), "!(f)");
    }

    #[test]
    fn renders_kernel_with_launch() {
        let k = KernelBuilder::new("parent").array("work").scalar("n").body(vec![
            let_("id", gtid()),
            when(lt(v("id"), v("n")), vec![launch("child", i(1), i(32), vec![v("work"), v("id")])]),
        ]);
        let s = kernel_to_string(&k);
        assert!(s.contains("__global__ void parent(long* work, long n)"));
        assert!(s.contains("child<<<1, 32>>>(work, id);"));
        assert!(s.contains("if ((id < n)) {"));
    }

    #[test]
    fn renders_atomics_and_sync() {
        let k = KernelBuilder::new("k").array("buf").body(vec![
            atomic_add(Some("old"), v("buf"), i(0), i(1)),
            atomic_cas(None, v("buf"), i(1), i(0), i(7)),
            sync(),
            device_sync(),
        ]);
        let s = kernel_to_string(&k);
        assert!(s.contains("long old = atomicAdd(&buf[0], 1);"));
        assert!(s.contains("atomicCAS(&buf[1], 0, 7);"));
        assert!(s.contains("__syncthreads();"));
        assert!(s.contains("cudaDeviceSynchronize();"));
    }

    #[test]
    fn module_renders_all_kernels() {
        let mut m = Module::new();
        m.add(KernelBuilder::new("a").body(vec![]));
        m.add(KernelBuilder::new("b").body(vec![ret()]));
        let s = module_to_string(&m);
        assert!(s.contains("void a()"));
        assert!(s.contains("void b()"));
        assert!(s.contains("return;"));
    }
}
