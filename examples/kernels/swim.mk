# swim: shallow-water stencil. Three input streams (one line-strided)
# and two output streams over ~4 MB arrays: bandwidth-heavy, perfectly
# decoupled.
kernel swim

stream sU = strided(4M, 8)             # streaming field
stream sV = strided(4K, 24)            # reused row buffer
stream sP = strided(1M, 8)             # second field
stream sUn = strided(4M, 8)            # streaming output
stream sVn = strided(4K, 24) share sV  # reused out

let a0 = loadf(sU)
let a1 = loadf(sV)
let a2 = loadf(sP)

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

storef sUn, l12
storef sVn, a0
advance sU
advance sP
advance sUn

# Index arithmetic: four integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
iadd scratch = scratch
