# turb3d: FFT-based turbulence. Small resident butterflies most of the
# time, but 3% of iterations recompute a bit-reversed offset from a
# freshly loaded index (computed-address dependence into the AP).
kernel turb3d

stream sRe = strided(4K, 8)            # resident butterfly (real)
stream sIm = strided(4K, 8) share sRe  # imaginary half
stream sTw = strided(4K, 8)            # twiddle factors
stream sIdx = strided(2M, 4, 4)        # bit-reversal table

let a0 = loadf(sRe)
let a1 = loadf(sIm)
let a2 = loadf(sTw)

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

stream sO = strided(4K, 8)
storef sO, l12

# 97% of iterations skip the index recomputation below.
let cnd = icmp(addr(sRe))
branch cnd prob 0.97 skip 3
let idx = loadi(sIdx)
let off = ishift(idx)
ilogic off = off, addr(sRe)
advance sRe
advance sTw
advance sO

# Index arithmetic: three integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
