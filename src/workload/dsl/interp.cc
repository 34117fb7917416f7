#include "workload/dsl/interp.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/serialize.hh"
#include "workload/dsl/parser.hh"
#include "workload/spec_fp95.hh"

namespace mtdae::dsl {

namespace {

/** What a name is bound to in some scope. */
struct Binding
{
    enum class Kind : std::uint8_t {
        Param,      ///< Compile-time number; value in value.
        LoopIndex,  ///< Current iteration of an enclosing loop.
        IntReg,     ///< Integer virtual register; id in reg.
        FpReg,      ///< FP virtual register; id in reg.
        Stream,     ///< Address stream; handle in stream.
    };

    Kind kind = Kind::Param;
    double value = 0.0;
    int reg = -1;
    KernelBuilder::Stream stream;
};

const char *
describe(Binding::Kind k)
{
    switch (k) {
      case Binding::Kind::Param:     return "a param";
      case Binding::Kind::LoopIndex: return "a loop index";
      case Binding::Kind::IntReg:    return "an int register";
      case Binding::Kind::FpReg:     return "an fp register";
      case Binding::Kind::Stream:    return "a stream";
    }
    return "";
}

/**
 * Shortest decimal form that parses back to the same double AND lexes
 * as a DSL numeric literal: whole values print as plain integers and
 * fractions in fixed notation — never scientific (the lexer has no
 * exponent syntax).
 */
std::string
numText(double v)
{
    char buf[348];
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) <= 9007199254740992.0) {
        const auto res =
            std::to_chars(buf, buf + sizeof(buf), std::int64_t(v));
        return std::string(buf, res.ptr);
    }
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed);
    return std::string(buf, res.ptr);
}

bool
isWhole(double v)
{
    return std::isfinite(v) && v == std::floor(v);
}

/**
 * Evaluates a Program against a KernelBuilder. Statements map 1:1 onto
 * builder calls, and every builder precondition (register and body
 * budgets, stream geometry, branch skips) is checked here first with a
 * source position, so the builder's panic paths stay unreachable.
 */
class Interp
{
  public:
    Interp(const Program &p, const ParamOverrides &overrides)
        : prog_(p), overrides_(overrides)
    {}

    CompiledKernel
    run()
    {
        scopes_.emplace_back();
        execStmts(prog_.items);
        checkBranchSkips();
        checkOverridesUsed();
        CompiledKernel out;
        out.params = std::move(params_);
        out.kernel = b_.build(prog_.kernelName);
        return out;
    }

  private:
    // The builder itself allows 32 registers per class and the trace
    // machinery a uint8 skip; the body cap guards against loop bombs
    // (a fully unrolled `loop 65536` would otherwise run the
    // interpreter for a very long time before anything rejects it).
    static constexpr std::size_t kMaxBodyOps = 4096;
    static constexpr double kMaxLoopTrips = 65536.0;
    static constexpr double kMaxFootprint = 1073741824.0;  // 1 GiB
    static constexpr double kMaxElemBytes = 4096.0;

    struct PendingBranch
    {
        int line, col;
        std::size_t opIdx;  ///< Body-op index of the branch itself.
        std::uint8_t skip;
    };

    // --- scopes -------------------------------------------------------

    Binding *
    resolve(const std::string &name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return &found->second;
        }
        return nullptr;
    }

    void
    declare(const std::string &name, Binding binding, int line, int col)
    {
        if (const Binding *prior = resolve(name)) {
            if (prior->kind == Binding::Kind::Param &&
                binding.kind == Binding::Kind::Param)
                throw DslError(line, col,
                               "duplicate param '" + name + "'");
            throw DslError(line, col,
                           "duplicate identifier '" + name + "'");
        }
        scopes_.back().emplace(name, std::move(binding));
    }

    // --- expressions --------------------------------------------------

    double
    evalExpr(const Expr &e)
    {
        switch (e.kind) {
          case Expr::Kind::Num:
            return e.num;
          case Expr::Kind::Var: {
            const Binding *b = resolve(e.name);
            if (!b)
                throw DslError(e.line, e.col,
                               "unknown identifier '" + e.name + "'");
            if (b->kind != Binding::Kind::Param &&
                b->kind != Binding::Kind::LoopIndex)
                throw DslError(e.line, e.col,
                               "type mismatch: '" + e.name + "' is " +
                                   describe(b->kind) +
                                   ", expected a number");
            return b->value;
          }
          case Expr::Kind::Unary:
            return -evalExpr(*e.lhs);
          case Expr::Kind::Binary: {
            const double l = evalExpr(*e.lhs);
            const double r = evalExpr(*e.rhs);
            switch (e.op) {
              case '+': return l + r;
              case '-': return l - r;
              case '*': return l * r;
              case '/':
                if (r == 0.0)
                    throw DslError(e.line, e.col, "division by zero");
                return l / r;
              case '%':
                if (r == 0.0)
                    throw DslError(e.line, e.col, "modulo by zero");
                return std::fmod(l, r);
            }
            break;
          }
        }
        throw DslError(e.line, e.col, "malformed expression");
    }

    bool
    evalCond(const Cond &c)
    {
        const double l = evalExpr(*c.lhs);
        if (c.relop.empty())
            return l != 0.0;
        const double r = evalExpr(*c.rhs);
        if (c.relop == "==") return l == r;
        if (c.relop == "!=") return l != r;
        if (c.relop == "<")  return l < r;
        if (c.relop == "<=") return l <= r;
        if (c.relop == ">")  return l > r;
        return l >= r;
    }

    double
    evalWhole(const Expr &e, double lo, double hi, const char *what)
    {
        const double v = evalExpr(e);
        if (!isWhole(v) || v < lo || v > hi)
            throw DslError(e.line, e.col,
                           std::string(what) +
                               " must be a whole number between " +
                               numText(lo) + " and " + numText(hi) +
                               ", got " + numText(v));
        return v;
    }

    // --- operand resolution -------------------------------------------

    Binding *
    resolveOperand(const Operand &o)
    {
        Binding *b = resolve(o.name);
        if (!b)
            throw DslError(o.line, o.col,
                           "unknown identifier '" + o.name + "'");
        return b;
    }

    int
    intRegOperand(const Operand &o)
    {
        Binding *b = resolveOperand(o);
        if (o.isAddr) {
            if (b->kind != Binding::Kind::Stream)
                throw DslError(o.line, o.col,
                               "type mismatch: '" + o.name + "' is " +
                                   describe(b->kind) +
                                   ", expected a stream");
            return b->stream.addrReg;
        }
        if (b->kind != Binding::Kind::IntReg)
            throw DslError(o.line, o.col,
                           "type mismatch: '" + o.name + "' is " +
                               describe(b->kind) +
                               ", expected an int register");
        return b->reg;
    }

    int
    fpRegOperand(const Operand &o)
    {
        Binding *b = resolveOperand(o);
        if (o.isAddr)
            throw DslError(o.line, o.col,
                           "type mismatch: 'addr(" + o.name +
                               ")' is an int register, expected an fp "
                               "register");
        if (b->kind != Binding::Kind::FpReg)
            throw DslError(o.line, o.col,
                           "type mismatch: '" + o.name + "' is " +
                               describe(b->kind) +
                               ", expected an fp register");
        return b->reg;
    }

    KernelBuilder::Stream
    streamOperand(const Operand &o)
    {
        Binding *b = resolveOperand(o);
        if (o.isAddr || b->kind != Binding::Kind::Stream)
            throw DslError(o.line, o.col,
                           "type mismatch: '" + o.name + "' is " +
                               describe(b->kind) +
                               ", expected a stream");
        return b->stream;
    }

    // --- budgets ------------------------------------------------------

    void
    chargeIntReg(int line, int col)
    {
        if (intRegs_ >= 32)
            throw DslError(line, col,
                           "too many int registers (the machine has "
                           "32)");
        ++intRegs_;
    }

    void
    chargeFpReg(int line, int col)
    {
        if (fpRegs_ >= 32)
            throw DslError(line, col,
                           "too many fp registers (the machine has "
                           "32)");
        ++fpRegs_;
    }

    void
    chargeOp(int line, int col)
    {
        if (opCount_ >= kMaxBodyOps)
            throw DslError(line, col,
                           "kernel body exceeds " +
                               std::to_string(kMaxBodyOps) +
                               " operations");
        ++opCount_;
    }

    // --- statements ---------------------------------------------------

    void
    execStmts(const std::vector<Stmt> &stmts)
    {
        for (const Stmt &s : stmts)
            execStmt(s);
    }

    void
    execStmt(const Stmt &s)
    {
        switch (s.kind) {
          case Stmt::Kind::Param:   execParam(s); return;
          case Stmt::Kind::Stream:  execStream(s); return;
          case Stmt::Kind::Reg:     execReg(s); return;
          case Stmt::Kind::Let:     execOp(s, /*in_place=*/false); return;
          case Stmt::Kind::OpInto:  execOp(s, /*in_place=*/true); return;
          case Stmt::Kind::Store:   execStore(s); return;
          case Stmt::Kind::Advance: execAdvance(s); return;
          case Stmt::Kind::Branch:  execBranch(s); return;
          case Stmt::Kind::Loop:    execLoop(s); return;
          case Stmt::Kind::If:      execIf(s); return;
        }
    }

    void
    execParam(const Stmt &s)
    {
        double value = evalExpr(*s.e0);
        // Later overrides win, mirroring repeated --kernel-param flags.
        for (const auto &[name, v] : overrides_)
            if (name == s.name)
                value = v;
        Binding b;
        b.kind = Binding::Kind::Param;
        b.value = value;
        declare(s.name, b, s.line, s.col);
        params_.emplace_back(s.name, value);
    }

    void
    execStream(const Stmt &s)
    {
        const StreamInit &init = s.stream;
        const std::uint64_t footprint = std::uint64_t(evalWhole(
            *init.footprint, 1.0, kMaxFootprint, "stream footprint"));
        const std::uint32_t elem =
            init.elem ? std::uint32_t(evalWhole(*init.elem, 1.0,
                                                kMaxElemBytes,
                                                "element size"))
                      : 8;
        if (footprint < elem)
            throw DslError(s.line, s.col,
                           "stream footprint smaller than an element");

        KernelBuilder::Stream stream;
        switch (init.kind) {
          case StreamInit::Kind::Strided: {
            const double sv = evalWhole(*init.stride, -kMaxFootprint,
                                        kMaxFootprint, "stride");
            if (sv == 0.0)
                throw DslError(init.stride->line, init.stride->col,
                               "zero stride");
            const double mag = sv >= 0.0 ? sv : -sv;
            if (mag > double(footprint))
                throw DslError(init.stride->line, init.stride->col,
                               "stride exceeds the stream footprint");
            if (!init.shareWith.empty()) {
                Operand share;
                share.name = init.shareWith;
                share.line = s.line;
                share.col = s.col;
                const KernelBuilder::Stream other =
                    streamOperand(share);
                stream = b_.stridedShared(footprint,
                                          std::int64_t(sv),
                                          other.addrReg, elem);
            } else {
                chargeIntReg(s.line, s.col);
                stream = b_.strided(footprint, std::int64_t(sv), elem);
            }
            break;
          }
          case StreamInit::Kind::Gather: {
            const int idx = intRegOperand(init.index);
            stream = b_.gather(footprint, idx, elem);
            break;
          }
          case StreamInit::Kind::Chain: {
            chargeIntReg(s.line, s.col);
            stream = b_.chain(footprint, elem);
            break;
          }
        }

        Binding b;
        b.kind = Binding::Kind::Stream;
        b.stream = stream;
        declare(s.name, b, s.line, s.col);
    }

    void
    execReg(const Stmt &s)
    {
        Binding b;
        if (s.regIsFp) {
            chargeFpReg(s.line, s.col);
            b.kind = Binding::Kind::FpReg;
            b.reg = b_.fpReg();
        } else {
            chargeIntReg(s.line, s.col);
            b.kind = Binding::Kind::IntReg;
            b.reg = b_.intReg();
        }
        declare(s.name, b, s.line, s.col);
    }

    void
    requireArgs(const Stmt &s, std::size_t lo, std::size_t hi)
    {
        if (s.args.size() >= lo && s.args.size() <= hi)
            return;
        std::string msg = "'" + s.op + "' takes ";
        if (lo == hi)
            msg += std::to_string(lo) +
                   (lo == 1 ? " operand" : " operands");
        else
            msg += std::to_string(lo) + " or " + std::to_string(hi) +
                   " operands";
        throw DslError(s.line, s.col, msg);
    }

    void
    execOp(const Stmt &s, bool in_place)
    {
        // The destination of an in-place op must already be a register
        // of the op's result class.
        const auto intoReg = [&](Binding::Kind cls) {
            Binding *b = resolve(s.name);
            if (!b)
                throw DslError(s.line, s.col,
                               "unknown identifier '" + s.name + "'");
            if (b->kind != cls)
                throw DslError(
                    s.line, s.col,
                    "type mismatch: '" + s.name + "' is " +
                        describe(b->kind) + ", expected " +
                        (cls == Binding::Kind::FpReg
                             ? "an fp register"
                             : "an int register"));
            return b->reg;
        };
        const auto bindResult = [&](Binding::Kind cls, int reg) {
            Binding b;
            b.kind = cls;
            b.reg = reg;
            declare(s.name, b, s.line, s.col);
        };

        if (s.op == "loadf" || s.op == "loadi") {
            requireArgs(s, 1, 1);
            const KernelBuilder::Stream stream = streamOperand(s.args[0]);
            const bool fp = s.op == "loadf";
            chargeOp(s.line, s.col);
            if (in_place) {
                const int dst = intoReg(fp ? Binding::Kind::FpReg
                                           : Binding::Kind::IntReg);
                fp ? b_.ldfInto(dst, stream) : b_.ldiInto(dst, stream);
            } else {
                fp ? chargeFpReg(s.line, s.col)
                   : chargeIntReg(s.line, s.col);
                bindResult(fp ? Binding::Kind::FpReg
                              : Binding::Kind::IntReg,
                           fp ? b_.ldf(stream) : b_.ldi(stream));
            }
            return;
        }

        if (s.op == "movif" || s.op == "movfi") {
            requireArgs(s, 1, 1);
            if (in_place)
                throw DslError(s.line, s.col,
                               "'" + s.op + "' has no in-place form");
            const bool toFp = s.op == "movif";
            const int src = toFp ? intRegOperand(s.args[0])
                                 : fpRegOperand(s.args[0]);
            chargeOp(s.line, s.col);
            toFp ? chargeFpReg(s.line, s.col)
                 : chargeIntReg(s.line, s.col);
            bindResult(toFp ? Binding::Kind::FpReg
                            : Binding::Kind::IntReg,
                       toFp ? b_.movif(src) : b_.movfi(src));
            return;
        }

        struct FpOp { const char *name; Opcode op; std::size_t args; };
        static const FpOp fp_ops[] = {
            {"fadd", Opcode::FAdd, 2}, {"fsub", Opcode::FSub, 2},
            {"fmul", Opcode::FMul, 2}, {"fdiv", Opcode::FDiv, 2},
            {"fcmp", Opcode::FCmp, 2}, {"fma", Opcode::FMA, 3},
            {"fmov", Opcode::FMov, 1},
        };
        for (const FpOp &op : fp_ops) {
            if (s.op != op.name)
                continue;
            requireArgs(s, op.args, op.args);
            int src[3] = {-1, -1, -1};
            for (std::size_t i = 0; i < op.args; ++i)
                src[i] = fpRegOperand(s.args[i]);
            chargeOp(s.line, s.col);
            if (in_place) {
                const int dst = intoReg(Binding::Kind::FpReg);
                b_.fopInto(op.op, dst, src[0], src[1], src[2]);
            } else {
                chargeFpReg(s.line, s.col);
                bindResult(Binding::Kind::FpReg,
                           b_.fop(op.op, src[0], src[1], src[2]));
            }
            return;
        }

        struct IntOp { const char *name; Opcode op; };
        static const IntOp int_ops[] = {
            {"iadd", Opcode::IAdd},   {"isub", Opcode::ISub},
            {"imul", Opcode::IMul},   {"ilogic", Opcode::ILogic},
            {"ishift", Opcode::IShift}, {"icmp", Opcode::ICmp},
        };
        for (const IntOp &op : int_ops) {
            if (s.op != op.name)
                continue;
            requireArgs(s, 1, 2);
            const int s0 = intRegOperand(s.args[0]);
            const int s1 =
                s.args.size() > 1 ? intRegOperand(s.args[1]) : -1;
            chargeOp(s.line, s.col);
            if (in_place) {
                const int dst = intoReg(Binding::Kind::IntReg);
                b_.iopInto(op.op, dst, s0, s1);
            } else {
                chargeIntReg(s.line, s.col);
                bindResult(Binding::Kind::IntReg,
                           b_.iop(op.op, s0, s1));
            }
            return;
        }

        // The parser only admits known operation keywords.
        throw DslError(s.line, s.col, "unknown operation '" + s.op + "'");
    }

    void
    execStore(const Stmt &s)
    {
        Operand target;
        target.name = s.name;
        target.line = s.line;
        target.col = s.col;
        const KernelBuilder::Stream stream = streamOperand(target);
        chargeOp(s.line, s.col);
        if (s.op == "storef")
            b_.stf(stream, fpRegOperand(s.args[0]));
        else
            b_.sti(stream, intRegOperand(s.args[0]));
    }

    void
    execAdvance(const Stmt &s)
    {
        Operand target;
        target.name = s.name;
        target.line = s.line;
        target.col = s.col;
        const KernelBuilder::Stream stream = streamOperand(target);
        chargeOp(s.line, s.col);
        b_.advance(stream);
    }

    void
    execBranch(const Stmt &s)
    {
        const bool fp = s.op == "branchf";
        const int cond = fp ? fpRegOperand(s.args[0])
                            : intRegOperand(s.args[0]);
        const double prob = evalExpr(*s.e0);
        if (!(prob >= 0.0 && prob <= 1.0))
            throw DslError(s.e0->line, s.e0->col,
                           "branch probability must be between 0 and "
                           "1, got " + numText(prob));
        const double skip =
            s.e1 ? evalWhole(*s.e1, 0.0, 255.0, "branch skip") : 0.0;
        branches_.push_back(
            {s.line, s.col, opCount_, std::uint8_t(skip)});
        chargeOp(s.line, s.col);
        if (fp)
            b_.brf(cond, float(prob), std::uint8_t(skip));
        else
            b_.br(cond, float(prob), std::uint8_t(skip));
    }

    void
    execLoop(const Stmt &s)
    {
        const double trips =
            evalWhole(*s.e0, 0.0, kMaxLoopTrips, "loop count");
        for (double i = 0.0; i < trips; i += 1.0) {
            // A fresh scope per iteration: declarations inside the
            // body allocate new registers each time around, exactly
            // like a C++ `for` over builder calls.
            scopes_.emplace_back();
            if (!s.name.empty()) {
                Binding b;
                b.kind = Binding::Kind::LoopIndex;
                b.value = i;
                scopes_.back().emplace(s.name, b);
            }
            execStmts(s.body);
            scopes_.pop_back();
        }
    }

    void
    execIf(const Stmt &s)
    {
        const bool taken = evalCond(s.cond);
        scopes_.emplace_back();
        execStmts(taken ? s.body : s.elseBody);
        scopes_.pop_back();
    }

    // --- final checks -------------------------------------------------

    void
    checkBranchSkips()
    {
        // build() appends the loop-counter update and the back-edge, so
        // the final body has opCount_ + 2 ops; a taken branch lands on
        // op (idx + 1 + skip), which must stay inside it (mirrors
        // Kernel::validate, with a source position instead of a panic).
        for (const PendingBranch &pb : branches_) {
            if (pb.skip > 0 &&
                pb.opIdx + 1 + pb.skip >= opCount_ + 2)
                throw DslError(pb.line, pb.col,
                               "branch skip runs past the loop "
                               "back-edge");
        }
    }

    void
    checkOverridesUsed()
    {
        for (const auto &[name, value] : overrides_) {
            (void)value;
            bool declared = false;
            for (const auto &[pname, pvalue] : params_) {
                (void)pvalue;
                if (pname == name)
                    declared = true;
            }
            if (!declared)
                throw DslError(0, 0,
                               "unknown param '" + name +
                                   "' (the kernel does not declare "
                                   "it)");
        }
    }

    const Program &prog_;
    const ParamOverrides &overrides_;
    KernelBuilder b_;
    std::vector<std::map<std::string, Binding>> scopes_;
    std::vector<std::pair<std::string, double>> params_;
    std::vector<PendingBranch> branches_;
    std::size_t opCount_ = 0;
    int intRegs_ = 1;  ///< The builder pre-allocates the loop counter.
    int fpRegs_ = 0;
};

/** One DSL kernel on every context, on the canonical workload layout. */
class DslKernelFactory : public TraceSourceFactory
{
  public:
    DslKernelFactory(std::string text, ParamOverrides overrides)
        : text_(std::move(text)), overrides_(std::move(overrides))
    {
        CompiledKernel c = compileDsl(text_, overrides_);
        kernel_ = std::make_shared<const Kernel>(std::move(c.kernel));

        // A kernel named after a modelled benchmark takes that
        // benchmark's layout slot (so a copy of a built-in's text runs
        // exactly as the built-in does); anything else hashes into the
        // remaining slots below the 6-bit region-encoding limit.
        const std::size_t idx = specFp95Index(kernel_->name);
        if (idx < specFp95Names().size()) {
            slot_ = idx;
        } else {
            const auto *bytes = reinterpret_cast<const std::uint8_t *>(
                kernel_->name.data());
            slot_ = 10 + fnv1a(bytes, kernel_->name.size()) % 50;
        }

        // Two factories share a warm-start prefix only when both the
        // text and every resolved param value coincide.
        const auto *text_bytes =
            reinterpret_cast<const std::uint8_t *>(text_.data());
        fingerprint_ = "dsl:" + kernel_->name + "@" +
                       std::to_string(fnv1a(text_bytes, text_.size()));
        for (const auto &[name, value] : c.params)
            fingerprint_ += ":" + name + "=" + numText(value);
    }

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(std::make_unique<KernelTraceSource>(
                kernel_, workloadRegionBase(t, slot_),
                workloadPcBase(slot_),
                workloadSourceSeed(seed, t, slot_)));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<DslKernelFactory>(*this);
    }

    const std::string &name() const override { return kernel_->name; }

    std::string fingerprint() const override { return fingerprint_; }

  private:
    std::string text_;
    ParamOverrides overrides_;
    /** Compiled, so validated, once; shared by every source make()
     *  builds and every clone. */
    std::shared_ptr<const Kernel> kernel_;
    std::size_t slot_ = 0;
    std::string fingerprint_;
};

} // namespace

CompiledKernel
compileDsl(const std::string &text, const ParamOverrides &overrides)
{
    const Program p = parseProgram(text);
    return Interp(p, overrides).run();
}

Kernel
compileKernel(const std::string &text, const ParamOverrides &overrides)
{
    return compileDsl(text, overrides).kernel;
}

std::unique_ptr<TraceSourceFactory>
makeDslFactory(const std::string &text, const ParamOverrides &overrides)
{
    return std::make_unique<DslKernelFactory>(text, overrides);
}

std::string
readKernelFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw DslError(0, 0,
                       "cannot read kernel file '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace mtdae::dsl
