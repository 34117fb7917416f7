# apsi: mesoscale pollutant transport. Two-stream body with a
# conditional store (15% taken): mild control dependence, moderate
# working set.
kernel apsi

stream sT = strided(2M, 8)    # field sweep
stream sQ = strided(4K, 24)   # resident coefficients
stream sO = strided(4K, 24)   # block-local output

let a0 = loadf(sT)
let a1 = loadf(sQ)

# Layered FP body: five ops on the loaded values, four combining
# those, and two loop-carried FMA reductions.
let l00 = fmul(a0, a1)
let l01 = fadd(a1, a0)
let l02 = fsub(a0, a1)
let l03 = fmul(a1, a0)
let l04 = fadd(a0, a1)
let l10 = fadd(l00, l01)
let l11 = fsub(l01, l02)
let l12 = fmul(l02, l03)
let l13 = fadd(l03, l04)
reg acc0 : fp
reg acc1 : fp
fma acc0 = l10, l13, acc0
fma acc1 = l00, l12, acc1

# Deposition test: 15% of iterations skip the store.
let cnd = icmp(addr(sT))
branch cnd prob 0.15 skip 1
storef sO, l12
advance sT
advance sQ
advance sO

# Index arithmetic: four integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
ilogic scratch = scratch
iadd scratch = scratch
