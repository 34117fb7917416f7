# hydro2d: Navier-Stokes on a 2-D grid with column-order inner loops:
# line-sized strides make nearly every access a miss over an 8 MB
# working set — the highest miss ratio of the suite.
kernel hydro2d

stream sR = strided(8M, 32)   # column sweep
stream sU = strided(6K, 24)   # reused column block
stream sV = strided(4K, 24)   # reused boundary row
stream sW = strided(4M, 8)    # streaming output

let a0 = loadf(sR)
let a1 = loadf(sU)
let a2 = loadf(sV)

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

storef sW, l12
advance sR
advance sU
advance sV
advance sW

# Index arithmetic: four integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
iadd scratch = scratch
