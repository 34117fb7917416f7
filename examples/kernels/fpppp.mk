# fpppp: two-electron integral derivatives. Tiny resident working set
# but enormous basic blocks of dependent FP arithmetic: compute bound,
# decoupling buys little. A rare (5%) spill path touches a 2 MB gather.
#
# The two integral blocks are written as `loop 2`: each iteration
# opens a fresh scope, so the per-block stream and temporaries are
# declared anew.
kernel fpppp

stream sSc = strided(4K, 8)   # resident scratch
reg acc : fp
reg spill : fp

# Rare register-spill path: 95% of iterations skip it.
let cnd = icmp(addr(sSc))
branch cnd prob 0.95 skip 2
let off2 = iadd(addr(sSc))
stream gBig = gather(2M) index off2
loadf spill = gBig
fadd acc = acc, spill

loop 2 {
    let idx = loadi(sSc)
    let off = iadd(idx)
    stream gD = gather(6K) index off
    let d = loadf(gD)
    let e = loadf(gD)
    let fc = fcmp(d, acc)
    branchf fc prob 0.85
    let t1 = fmul(d, e)
    let t2 = fadd(d, e)
    let t3 = fsub(e, d)
    let t4 = fmul(e, e)
    let c1 = fma(t1, t2, acc)
    let c2 = fadd(t3, t4)
    let p1 = fadd(t1, t3)
    let p2 = fmul(t2, t4)
    let p3 = fadd(p1, p2)
    fma acc = c1, c2, acc
    advance sSc
}
