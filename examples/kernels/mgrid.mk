# mgrid: multigrid solver. Mixed unit and coarse strides (restriction
# and prolongation touch every other plane): moderate miss ratio,
# excellent decoupling.
kernel mgrid

stream sF = strided(2M, 8)             # fine-grid sweep
stream sC = strided(4K, 24)            # coarse grid (resident)
stream sN = strided(4K, 24) share sC   # neighbours
stream sO = strided(4K, 24)            # block-local output

let a0 = loadf(sF)
let a1 = loadf(sC)
let a2 = loadf(sN)

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

storef sO, l12
advance sF
advance sC
advance sO

# Index arithmetic: four integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
iadd scratch = scratch
