# tomcatv: vectorised mesh generation. Unit-stride sweeps over several
# multi-MB arrays; address arithmetic fully independent of the FP
# results (near-perfect decoupling, significant miss ratio).
kernel tomcatv

stream sA = strided(2M, 8)            # streaming input plane
stream sB = strided(4K, 24)           # reused previous plane
stream sX = strided(4K, 24) share sB  # coefficients
stream sC = strided(2M, 8)            # streaming output

let a0 = loadf(sA)
let a1 = loadf(sB)
let a2 = loadf(sX)

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

storef sC, l12
advance sA
advance sX
advance sC

# Index arithmetic: four integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
iadd scratch = scratch
