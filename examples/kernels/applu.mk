# applu: SSOR solver for coupled PDEs. Triangular solves carry a
# loop-exit test each iteration (branch prob 0.2 skips the store), the
# first control-dependence workload in the suite.
kernel applu

stream sA = strided(1536K, 8)          # wavefront sweep
stream sB = strided(4K, 24)            # block row (resident)
stream sC = strided(4K, 24) share sB   # jacobian blocks
stream sO = strided(4K, 24)            # block-local output

let a0 = loadf(sA)
let a1 = loadf(sB)
let a2 = loadf(sC)

# Layered FP body: five ops on the loaded values, four combining
# those, and two loop-carried FMA reductions.
let l00 = fmul(a0, a1)
let l01 = fadd(a1, a2)
let l02 = fsub(a2, a0)
let l03 = fmul(a0, a1)
let l04 = fadd(a1, a2)
let l10 = fadd(l00, l01)
let l11 = fsub(l01, l02)
let l12 = fmul(l02, l03)
let l13 = fadd(l03, l04)
reg acc0 : fp
reg acc1 : fp
fma acc0 = l10, l13, acc0
fma acc1 = l00, l12, acc1

# Boundary test: taken with prob 0.2, skipping the store below.
let t = iadd(addr(sA))
let cnd = icmp(t)
branch cnd prob 0.2 skip 1
storef sO, l12
advance sA
advance sB
advance sO

# Index arithmetic: three integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
