//! A textual assembler for the kernel IR.
//!
//! [`parse_kernel`] accepts the exact format [`Kernel`]'s `Display` emits
//! (disassembly is re-assemblable), plus conveniences for hand-written
//! programs: named labels, comments, and optional directives.
//!
//! ```text
//! .kernel saxpy          // name (required, first non-comment line)
//! .regs 8                // optional; default = highest register used + 1
//! .shared 1024           // optional per-CTA shared bytes (default 0)
//! .local 0               // optional per-thread local bytes (default 0)
//!
//!     mov r0, %gtid
//!     setp.lt p0, r0, 100
//!     @!p0 bra done (reconv done)
//!     shl r1, r0, 2
//!     ld.global.u32 r2, [r1+0]
//!     add r2, r2, 1
//!     st.global.u32 [r1+0], r2
//! done:
//!     exit
//! ```
//!
//! Branch targets may be labels or absolute PCs; the optional leading
//! `NN:` produced by the disassembler is accepted and ignored (it also
//! works as a numeric label).

use std::collections::HashMap;
use std::fmt;

use crate::instr::{
    AluOp, CmpOp, Guard, Instr, Operand, Pc, PredReg, Reg, Space, Special, Width, RECONV_NONE,
};
use crate::kernel::{Kernel, ValidateError};

/// Error produced by [`parse_kernel`], with a 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line the error was found on (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

/// The specific failure behind an [`AsmError`].
///
/// Variants carry the offending token so callers can report or test
/// against it without string-matching the rendered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// `.kernel` directive with no name argument.
    MissingKernelName,
    /// No `.kernel` directive anywhere in the input.
    MissingKernelDirective,
    /// A directive other than `.kernel`/`.regs`/`.shared`/`.local`.
    UnknownDirective(String),
    /// A label with characters outside `[A-Za-z0-9_]`.
    BadLabel(String),
    /// The same label defined twice.
    DuplicateLabel(String),
    /// A branch target label never defined.
    UnknownLabel(String),
    /// A directive argument that is not a number; `what` names the directive.
    BadNumber {
        /// Which directive expected the number (e.g. `.regs`).
        what: &'static str,
        /// The token found instead.
        got: String,
    },
    /// A token where a register (`rN`) was expected.
    ExpectedRegister(String),
    /// A token where a predicate (`pN`) was expected.
    ExpectedPredicate(String),
    /// A token where a register or immediate was expected.
    ExpectedOperand(String),
    /// An unrecognized `%special` register name.
    UnknownSpecial(String),
    /// A memory operand not of the form `[reg+offset]`.
    BadAddress(String),
    /// A memory operand whose offset is not a number.
    BadOffset(String),
    /// An unrecognized address-space suffix.
    UnknownSpace(String),
    /// An unrecognized width suffix.
    UnknownWidth(String),
    /// An unrecognized `setp` comparison suffix.
    UnknownComparison(String),
    /// A branch tail that is not `(reconv TARGET)`.
    BadReconverge(String),
    /// `ld.param` without a literal `[index]` operand.
    BadParamIndex,
    /// A `@p` guard on an instruction other than `bra`.
    GuardOnNonBranch,
    /// Wrong number of comma-separated operands for a mnemonic.
    WrongOperandCount {
        /// The mnemonic as written.
        mnemonic: String,
        /// How many operands it takes.
        expected: usize,
    },
    /// A mnemonic no instruction matches.
    UnknownMnemonic(String),
    /// The assembled kernel failed [`Kernel::validate`].
    Validation(ValidateError),
}

impl AsmError {
    fn new(line: usize, kind: AsmErrorKind) -> Self {
        AsmError { line, kind }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AsmErrorKind::*;
        match self {
            MissingKernelName => write!(f, ".kernel needs a name"),
            MissingKernelDirective => write!(f, "missing .kernel directive"),
            UnknownDirective(d) => write!(f, "unknown directive .{d}"),
            BadLabel(l) => write!(f, "bad label '{l}'"),
            DuplicateLabel(l) => write!(f, "duplicate label '{l}'"),
            UnknownLabel(l) => write!(f, "unknown label '{l}'"),
            BadNumber { what, got } => write!(f, "{what}: expected a number, got '{got}'"),
            ExpectedRegister(s) => write!(f, "expected a register, got '{s}'"),
            ExpectedPredicate(s) => write!(f, "expected a predicate, got '{s}'"),
            ExpectedOperand(s) => write!(f, "expected an operand, got '{s}'"),
            UnknownSpecial(s) => write!(f, "unknown special register '{s}'"),
            BadAddress(s) => write!(f, "expected [reg+offset], got '{s}'"),
            BadOffset(s) => write!(f, "bad offset in '{s}'"),
            UnknownSpace(s) => write!(f, "unknown space '{s}'"),
            UnknownWidth(s) => write!(f, "unknown width '{s}'"),
            UnknownComparison(s) => write!(f, "unknown comparison '{s}'"),
            BadReconverge(s) => write!(f, "expected (reconv TARGET), got '{s}'"),
            BadParamIndex => write!(f, "ld.param needs [index]"),
            GuardOnNonBranch => write!(f, "only branches may carry a predicate guard"),
            WrongOperandCount { mnemonic, expected } => {
                write!(f, "{mnemonic} needs {expected} operands")
            }
            UnknownMnemonic(m) => write!(f, "unknown mnemonic '{m}'"),
            Validation(e) => write!(f, "validation failed: {e}"),
        }
    }
}

impl std::error::Error for AsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            AsmErrorKind::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for AsmError {
    fn from(e: ValidateError) -> Self {
        AsmError::new(0, AsmErrorKind::Validation(e))
    }
}

/// A branch target that may still be symbolic.
#[derive(Debug, Clone)]
enum Target {
    Pc(Pc),
    Label(String),
    None, // "(reconv none)"
}

struct PendingBranch {
    guard: Option<Guard>,
    target: Target,
    reconverge: Target,
}

enum Parsed {
    Instr(Instr),
    Branch(PendingBranch),
}

/// Parses assembly text into a validated [`Kernel`].
///
/// # Errors
///
/// Returns [`AsmError`] with the offending line for syntax errors, unknown
/// mnemonics/labels, or post-assembly validation failures.
pub fn parse_kernel(text: &str) -> Result<Kernel, AsmError> {
    let mut name: Option<String> = None;
    let mut regs: Option<Reg> = None;
    let mut shared = 0u64;
    let mut local = 0u64;
    let mut labels: HashMap<String, Pc> = HashMap::new();
    let mut items: Vec<(usize, Parsed)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        // Directives.
        if let Some(rest) = line.strip_prefix('.') {
            let (dir, arg) = split_word(rest);
            let arg = arg.trim();
            match dir {
                "kernel" => {
                    if arg.is_empty() {
                        return Err(AsmError::new(lineno, AsmErrorKind::MissingKernelName));
                    }
                    name = Some(arg.to_string());
                }
                "regs" => {
                    regs = Some(parse_num(arg, lineno, ".regs")? as Reg);
                }
                "shared" => shared = parse_num(arg, lineno, ".shared")?,
                "local" => local = parse_num(arg, lineno, ".local")?,
                other => {
                    return Err(AsmError::new(
                        lineno,
                        AsmErrorKind::UnknownDirective(other.to_string()),
                    ));
                }
            }
            continue;
        }
        // Leading labels (also covers the disassembler's "NN:" prefixes).
        while let Some(colon) = find_label_colon(line) {
            let label = line[..colon].trim();
            if !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(AsmError::new(
                    lineno,
                    AsmErrorKind::BadLabel(label.to_string()),
                ));
            }
            // Numeric "labels" from disassembly are positional and ignored.
            if label.parse::<usize>().is_err()
                && labels.insert(label.to_string(), items.len()).is_some()
            {
                return Err(AsmError::new(
                    lineno,
                    AsmErrorKind::DuplicateLabel(label.to_string()),
                ));
            }
            line = line[colon + 1..].trim();
            if line.is_empty() {
                break;
            }
        }
        if line.is_empty() {
            continue;
        }
        items.push((lineno, parse_instr(line, lineno)?));
    }

    let name = name.ok_or_else(|| AsmError::new(0, AsmErrorKind::MissingKernelDirective))?;

    // Resolve labels.
    let resolve = |t: &Target, lineno: usize| -> Result<Pc, AsmError> {
        match t {
            Target::Pc(pc) => Ok(*pc),
            Target::None => Ok(RECONV_NONE),
            Target::Label(l) => labels
                .get(l)
                .copied()
                .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::UnknownLabel(l.clone()))),
        }
    };
    let mut instrs = Vec::with_capacity(items.len());
    for (lineno, item) in items {
        instrs.push(match item {
            Parsed::Instr(i) => i,
            Parsed::Branch(b) => Instr::Branch {
                guard: b.guard,
                target: resolve(&b.target, lineno)?,
                reconverge: resolve(&b.reconverge, lineno)?,
            },
        });
    }

    // Infer the register count when not declared.
    let num_regs = regs.unwrap_or_else(|| {
        instrs
            .iter()
            .flat_map(|i| {
                i.def_reg()
                    .into_iter()
                    .chain(i.use_regs())
                    .collect::<Vec<_>>()
            })
            .max()
            .map_or(0, |r| r + 1)
    });

    let kernel = Kernel::from_parts(name, instrs, num_regs, shared, local);
    kernel.validate()?;
    Ok(kernel)
}

/// Shorthand for the operand-count error.
fn wrong_operands(lineno: usize, mnemonic: &str, expected: usize) -> AsmError {
    AsmError::new(
        lineno,
        AsmErrorKind::WrongOperandCount {
            mnemonic: mnemonic.to_string(),
            expected,
        },
    )
}

fn strip_comment(line: &str) -> &str {
    let cut = line
        .find("//")
        .into_iter()
        .chain(line.find('#'))
        .min()
        .unwrap_or(line.len());
    &line[..cut]
}

fn split_word(s: &str) -> (&str, &str) {
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    }
}

/// Finds the colon of a leading `label:` prefix, if any (a colon before any
/// whitespace or operand punctuation).
fn find_label_colon(line: &str) -> Option<usize> {
    let colon = line.find(':')?;
    let head = &line[..colon];
    if head.is_empty() || head.contains(char::is_whitespace) || head.contains(',') {
        None
    } else {
        Some(colon)
    }
}

fn parse_num(s: &str, lineno: usize, what: &'static str) -> Result<u64, AsmError> {
    s.parse::<u64>().map_err(|_| {
        AsmError::new(
            lineno,
            AsmErrorKind::BadNumber {
                what,
                got: s.to_string(),
            },
        )
    })
}

fn parse_reg(s: &str, lineno: usize) -> Result<Reg, AsmError> {
    s.strip_prefix('r')
        .and_then(|n| n.parse::<Reg>().ok())
        .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::ExpectedRegister(s.to_string())))
}

fn parse_pred(s: &str, lineno: usize) -> Result<PredReg, AsmError> {
    s.strip_prefix('p')
        .and_then(|n| n.parse::<PredReg>().ok())
        .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::ExpectedPredicate(s.to_string())))
}

fn parse_operand(s: &str, lineno: usize) -> Result<Operand, AsmError> {
    if let Some(n) = s.strip_prefix('r') {
        if let Ok(r) = n.parse::<Reg>() {
            return Ok(Operand::Reg(r));
        }
    }
    s.parse::<i64>()
        .map(Operand::Imm)
        .map_err(|_| AsmError::new(lineno, AsmErrorKind::ExpectedOperand(s.to_string())))
}

fn parse_special(s: &str, lineno: usize) -> Result<Special, AsmError> {
    Special::ALL
        .into_iter()
        .find(|sp| sp.name() == s)
        .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::UnknownSpecial(s.to_string())))
}

/// Parses `[rN+off]`, `[rN-off]`, or `[rN]`.
fn parse_addr(s: &str, lineno: usize) -> Result<(Reg, i64), AsmError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::BadAddress(s.to_string())))?;
    if let Some(plus) = inner.find('+') {
        let reg = parse_reg(inner[..plus].trim(), lineno)?;
        let off = inner[plus + 1..]
            .trim()
            .parse::<i64>()
            .map_err(|_| AsmError::new(lineno, AsmErrorKind::BadOffset(s.to_string())))?;
        Ok((reg, off))
    } else if let Some(minus) = inner[1..].find('-') {
        let reg = parse_reg(inner[..minus + 1].trim(), lineno)?;
        let off = inner[minus + 1..]
            .trim()
            .parse::<i64>()
            .map_err(|_| AsmError::new(lineno, AsmErrorKind::BadOffset(s.to_string())))?;
        Ok((reg, off))
    } else {
        Ok((parse_reg(inner.trim(), lineno)?, 0))
    }
}

fn parse_space(s: &str, lineno: usize) -> Result<Space, AsmError> {
    Space::ALL
        .into_iter()
        .find(|sp| sp.name() == s)
        .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::UnknownSpace(s.to_string())))
}

fn parse_width(s: &str, lineno: usize) -> Result<Width, AsmError> {
    Ok(match s {
        "u32" => Width::W4,
        "u64" => Width::W8,
        other => {
            return Err(AsmError::new(
                lineno,
                AsmErrorKind::UnknownWidth(other.to_string()),
            ))
        }
    })
}

fn parse_target(s: &str) -> Target {
    if s == "none" {
        Target::None
    } else if let Ok(pc) = s.parse::<usize>() {
        Target::Pc(pc)
    } else {
        Target::Label(s.to_string())
    }
}

fn alu_op(mnemonic: &str) -> Option<AluOp> {
    AluOp::ALL.into_iter().find(|op| op.mnemonic() == mnemonic)
}

fn cmp_op(mnemonic: &str, lineno: usize) -> Result<CmpOp, AsmError> {
    CmpOp::ALL
        .into_iter()
        .find(|op| op.mnemonic() == mnemonic)
        .ok_or_else(|| {
            AsmError::new(
                lineno,
                AsmErrorKind::UnknownComparison(mnemonic.to_string()),
            )
        })
}

fn operands(rest: &str) -> Vec<&str> {
    rest.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_instr(line: &str, lineno: usize) -> Result<Parsed, AsmError> {
    // Optional predicate guard.
    let (guard, line) = if let Some(rest) = line.strip_prefix('@') {
        let (g, rest2) = split_word(rest);
        let (expect, pname) = match g.strip_prefix('!') {
            Some(p) => (false, p),
            None => (true, g),
        };
        (
            Some(Guard {
                pred: parse_pred(pname, lineno)?,
                expect,
            }),
            rest2.trim(),
        )
    } else {
        (None, line)
    };

    let (mnemonic, rest) = split_word(line);
    let rest = rest.trim();

    if mnemonic == "bra" {
        // "bra TARGET" or "bra TARGET (reconv R)".
        let (target_s, tail) = split_word(rest);
        let target = parse_target(target_s);
        let tail = tail.trim();
        let reconverge = if tail.is_empty() {
            match &target {
                _ if guard.is_none() => Target::None,
                Target::Pc(pc) => Target::Pc(*pc),
                Target::Label(l) => Target::Label(l.clone()),
                Target::None => Target::None,
            }
        } else {
            let inner = tail
                .strip_prefix("(reconv")
                .and_then(|x| x.strip_suffix(')'))
                .map(str::trim)
                .ok_or_else(|| {
                    AsmError::new(lineno, AsmErrorKind::BadReconverge(tail.to_string()))
                })?;
            parse_target(inner)
        };
        return Ok(Parsed::Branch(PendingBranch {
            guard,
            target,
            reconverge,
        }));
    }

    if guard.is_some() {
        return Err(AsmError::new(lineno, AsmErrorKind::GuardOnNonBranch));
    }

    let parsed = match mnemonic {
        "exit" => Instr::Exit,
        "membar" => Instr::MemBar,
        "bar.sync" | "bar" => Instr::Bar,
        "mov" => {
            let ops = operands(rest);
            if ops.len() != 2 {
                return Err(wrong_operands(lineno, "mov", 2));
            }
            let dst = parse_reg(ops[0], lineno)?;
            if ops[1].starts_with('%') {
                Instr::ReadSpecial {
                    dst,
                    special: parse_special(ops[1], lineno)?,
                }
            } else {
                Instr::Mov {
                    dst,
                    src: parse_operand(ops[1], lineno)?,
                }
            }
        }
        "ld.param" => {
            let ops = operands(rest);
            if ops.len() != 2 {
                return Err(wrong_operands(lineno, "ld.param", 2));
            }
            let dst = parse_reg(ops[0], lineno)?;
            let idx = ops[1]
                .strip_prefix('[')
                .and_then(|x| x.strip_suffix(']'))
                .and_then(|x| x.trim().parse::<usize>().ok())
                .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::BadParamIndex))?;
            Instr::LdParam { dst, index: idx }
        }
        m if m.starts_with("setp.") => {
            let op = cmp_op(&m[5..], lineno)?;
            let ops = operands(rest);
            if ops.len() != 3 {
                return Err(wrong_operands(lineno, "setp", 3));
            }
            Instr::SetP {
                pred: parse_pred(ops[0], lineno)?,
                op,
                a: parse_operand(ops[1], lineno)?,
                b: parse_operand(ops[2], lineno)?,
            }
        }
        m if m.starts_with("ld.") => {
            let mut parts = m.splitn(3, '.');
            let _ = parts.next();
            let space = parse_space(parts.next().unwrap_or(""), lineno)?;
            let width = parse_width(parts.next().unwrap_or(""), lineno)?;
            let ops = operands(rest);
            if ops.len() != 2 {
                return Err(wrong_operands(lineno, "ld", 2));
            }
            let dst = parse_reg(ops[0], lineno)?;
            let (addr, offset) = parse_addr(ops[1], lineno)?;
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            }
        }
        m if m.starts_with("st.") => {
            let mut parts = m.splitn(3, '.');
            let _ = parts.next();
            let space = parse_space(parts.next().unwrap_or(""), lineno)?;
            let width = parse_width(parts.next().unwrap_or(""), lineno)?;
            let ops = operands(rest);
            if ops.len() != 2 {
                return Err(wrong_operands(lineno, "st", 2));
            }
            let (addr, offset) = parse_addr(ops[0], lineno)?;
            Instr::St {
                space,
                width,
                src: parse_operand(ops[1], lineno)?,
                addr,
                offset,
            }
        }
        m if m.starts_with("atom.add.") => {
            let width = parse_width(&m[9..], lineno)?;
            let ops = operands(rest);
            if ops.len() != 3 {
                return Err(wrong_operands(lineno, "atom.add", 3));
            }
            let dst = parse_reg(ops[0], lineno)?;
            let (addr, offset) = parse_addr(ops[1], lineno)?;
            Instr::AtomAdd {
                width,
                dst,
                addr,
                offset,
                val: parse_operand(ops[2], lineno)?,
            }
        }
        m => {
            if let Some(op) = alu_op(m) {
                let ops = operands(rest);
                if ops.len() != 3 {
                    return Err(wrong_operands(lineno, m, 3));
                }
                Instr::Alu {
                    op,
                    dst: parse_reg(ops[0], lineno)?,
                    a: parse_operand(ops[1], lineno)?,
                    b: parse_operand(ops[2], lineno)?,
                }
            } else {
                return Err(AsmError::new(
                    lineno,
                    AsmErrorKind::UnknownMnemonic(m.to_string()),
                ));
            }
        }
    };
    Ok(Parsed::Instr(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    /// The parser reads names from the tables the disassembler writes
    /// them with, so each name is one variant's and parses back to it.
    #[test]
    fn every_name_parses_back_to_its_variant() {
        for op in AluOp::ALL {
            assert_eq!(alu_op(op.mnemonic()), Some(op));
        }
        for op in CmpOp::ALL {
            assert_eq!(cmp_op(op.mnemonic(), 1), Ok(op));
        }
        for sp in Special::ALL {
            assert_eq!(parse_special(sp.name(), 1), Ok(sp));
        }
        for sp in Space::ALL {
            assert_eq!(parse_space(sp.name(), 1), Ok(sp));
        }
    }

    #[test]
    fn parse_minimal_kernel() {
        let k = parse_kernel(".kernel k\nexit\n").unwrap();
        assert_eq!(k.name(), "k");
        assert_eq!(k.len(), 1);
        assert_eq!(k.num_regs(), 0);
    }

    #[test]
    fn parse_saxpy_with_labels() {
        let src = r"
            .kernel saxpy
            .shared 0
                mov r0, %gtid
                ld.param r1, [1]
                setp.lt p0, r0, r1
                @!p0 bra done (reconv done)
                shl r2, r0, 2
                ld.param r3, [0]
                add r3, r3, r2
                ld.global.u32 r4, [r3+0]
                mul r4, r4, 3
                st.global.u32 [r3+0], r4
            done:
                exit
        ";
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.name(), "saxpy");
        assert_eq!(k.num_regs(), 5, "inferred register count");
        match k.instr(3) {
            Instr::Branch {
                guard: Some(g),
                target,
                reconverge,
            } => {
                assert!(!g.expect);
                assert_eq!(*target, 10);
                assert_eq!(*reconverge, 10);
            }
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = ".kernel k // name\n# full-line comment\n\nmov r0, 5 // trailing\nexit\n";
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.len(), 2);
        assert_eq!(
            k.instr(0),
            &Instr::Mov {
                dst: 0,
                src: Operand::Imm(5)
            }
        );
    }

    #[test]
    fn negative_offsets_and_immediates() {
        let src = ".kernel k\nld.global.u64 r1, [r0-8]\nmov r2, -42\nexit\n";
        let k = parse_kernel(src).unwrap();
        assert_eq!(
            k.instr(0),
            &Instr::Ld {
                space: Space::Global,
                width: Width::W8,
                dst: 1,
                addr: 0,
                offset: -8
            }
        );
        assert_eq!(
            k.instr(1),
            &Instr::Mov {
                dst: 2,
                src: Operand::Imm(-42)
            }
        );
    }

    #[test]
    fn uncond_branch_defaults_reconverge_to_none() {
        let src = ".kernel k\nloop:\nbra loop\nexit\n";
        let k = parse_kernel(src).unwrap();
        match k.instr(0) {
            Instr::Branch {
                guard: None,
                target: 0,
                reconverge,
            } => assert_eq!(*reconverge, RECONV_NONE),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers_and_kinds() {
        let err = parse_kernel(".kernel k\nbogus r0, r1\nexit\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, AsmErrorKind::UnknownMnemonic("bogus".into()));
        assert!(err.to_string().contains("bogus"));

        let err = parse_kernel(".kernel k\nbra nowhere\nexit\n").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::UnknownLabel("nowhere".into()));

        let err = parse_kernel("exit\n").unwrap_err();
        assert_eq!(err.line, 0, "file-level error");
        assert_eq!(err.kind, AsmErrorKind::MissingKernelDirective);

        let err = parse_kernel(".kernel k\n@p0 add r0, r1, r2\nexit\n").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::GuardOnNonBranch);
        assert!(err.to_string().contains("guard"));

        let err = parse_kernel(".kernel k\nfoo:\nfoo:\nexit\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, AsmErrorKind::DuplicateLabel("foo".into()));
    }

    #[test]
    fn syntax_error_kinds_name_the_offending_token() {
        for (src, kind) in [
            (
                ".kernel k\nmov r0\nexit\n",
                AsmErrorKind::WrongOperandCount {
                    mnemonic: "mov".into(),
                    expected: 2,
                },
            ),
            (
                ".kernel k\nmov q7, 1\nexit\n",
                AsmErrorKind::ExpectedRegister("q7".into()),
            ),
            (
                ".kernel k\nmov r0, %bad\nexit\n",
                AsmErrorKind::UnknownSpecial("%bad".into()),
            ),
            (
                ".kernel k\nld.global.u16 r0, [r1+0]\nexit\n",
                AsmErrorKind::UnknownWidth("u16".into()),
            ),
            (
                ".kernel k\nld.weird.u32 r0, [r1+0]\nexit\n",
                AsmErrorKind::UnknownSpace("weird".into()),
            ),
            (
                ".kernel k\nsetp.xx p0, r0, r1\nexit\n",
                AsmErrorKind::UnknownComparison("xx".into()),
            ),
            (
                ".kernel k\nld.global.u32 r0, r1\nexit\n",
                AsmErrorKind::BadAddress("r1".into()),
            ),
            (
                ".kernel k\nld.param r0, 3\nexit\n",
                AsmErrorKind::BadParamIndex,
            ),
            (
                ".kernel k\n.regs lots\nexit\n",
                AsmErrorKind::BadNumber {
                    what: ".regs",
                    got: "lots".into(),
                },
            ),
            (
                ".kernel k\n.frobnicate 3\nexit\n",
                AsmErrorKind::UnknownDirective("frobnicate".into()),
            ),
        ] {
            let err = parse_kernel(src).unwrap_err();
            assert_eq!(err.kind, kind, "for source {src:?}");
            assert_eq!(err.line, 2, "for source {src:?}");
        }
    }

    #[test]
    fn validation_errors_surface() {
        // Branch to a PC beyond the end.
        let err = parse_kernel(".kernel k\nbra 99\nexit\n").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::Validation(_)), "{err:?}");
        assert!(err.to_string().contains("validation"), "{err}");
        // The validation failure is chained as the error source.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn disassembly_round_trips_builder_kernels() {
        // Build a kernel with every instruction class via the builder,
        // disassemble, re-assemble, compare instruction-for-instruction.
        let mut b = KernelBuilder::new("roundtrip");
        let base = b.param(0);
        let n = b.param(1);
        let t = b.special(crate::Special::GlobalTid);
        let p = b.setp(crate::CmpOp::Lt, t, n);
        b.if_then_else(
            p,
            |b| {
                let off = b.shl(t, 2);
                let addr = b.add(base, off);
                let v = b.ld_global(Width::W4, addr, 0);
                let w = b.alu(crate::AluOp::FMul, v, v);
                b.st_global(Width::W4, addr, -4, w);
                b.atom_add(Width::W4, addr, 8, 1);
            },
            |b| {
                let l = b.mov(16i64);
                b.st(Space::Local, Width::W8, l, 0, 7i64);
                let s = b.mov(0i64);
                b.st(Space::Shared, Width::W4, s, 0, 9i64);
                b.bar();
                b.membar();
            },
        );
        b.exit();
        let original = b.build().unwrap();
        let text = original.to_string();
        let reparsed =
            parse_kernel(&text).unwrap_or_else(|e| panic!("reassembly failed: {e}\n{text}"));
        assert_eq!(original.instrs(), reparsed.instrs(), "\n{text}");
        assert_eq!(original.name(), reparsed.name());
        assert_eq!(original.num_regs(), reparsed.num_regs());
        assert_eq!(original.shared_bytes(), reparsed.shared_bytes());
        assert_eq!(
            original.local_bytes_per_thread(),
            reparsed.local_bytes_per_thread()
        );
    }
}
